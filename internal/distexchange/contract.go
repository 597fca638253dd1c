package distexchange

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/store"
)

// Config parameterizes the DE App deployment.
type Config struct {
	// ManufacturerCAKey is the public key (uncompressed point) of the TEE
	// manufacturer certificate authority trusted for device registration.
	ManufacturerCAKey []byte
}

// Contract is the DE App smart contract.
type Contract struct {
	cfg Config
}

var _ contract.Contract = (*Contract)(nil)

// New returns a DE App contract instance.
func New(cfg Config) *Contract { return &Contract{cfg: cfg} }

// Storage key builders. Each appends its key to b — Env.Key or
// ReadEnv.Key, which hold the contract's namespace — and returns it, so a
// key is built in one buffer and never passes through a string. Composite
// keys join their parts with '|'. A hex address or a zero-padded number
// never holds one, and registerResource refuses a resource IRI that does
// (checkKeyPart): such an IRI would name another resource's keys, its
// grant and ledger listings included. A WebID is only ever a whole key,
// pod/<webID>, so it may hold one.
func podKey(b []byte, webID string) []byte { return append(append(b, "pod/"...), webID...) }
func resKey(b []byte, iri string) []byte   { return append(append(b, "res/"...), iri...) }
func devKey(b []byte, a cryptoutil.Address) []byte {
	return appendAddress(append(b, "dev/"...), a)
}
func grantKey(b []byte, iri string, d cryptoutil.Address) []byte {
	return appendAddress(grantPrefix(b, iri), d)
}
func grantPrefix(b []byte, iri string) []byte {
	return append(append(append(b, "grant/"...), iri...), '|')
}
func roundSeqKey(b []byte, iri string) []byte { return append(append(b, "roundseq/"...), iri...) }
func evSeqKey(b []byte, iri string) []byte    { return append(append(b, "evseq/"...), iri...) }
func violSeqKey(b []byte, iri string) []byte  { return append(append(b, "violseq/"...), iri...) }

// Monitoring keys; the package comment describes the layout.
func roundKey(b []byte, iri string, n uint64) []byte {
	return appendNum(append(append(b, "round/"...), iri...), n)
}
func closedKey(b []byte, iri string, n uint64) []byte {
	return appendNum(append(append(b, "roundclosed/"...), iri...), n)
}
func pendingKey(b []byte, iri string, n uint64, d cryptoutil.Address) []byte {
	b = appendNum(append(append(b, "roundpend/"...), iri...), n)
	return appendAddress(append(b, '|'), d)
}
func evKey(b []byte, iri string, round, seq uint64) []byte {
	return appendNum(appendNum(append(append(b, "ev/"...), iri...), round), seq)
}
func violKey(b []byte, iri string, round, seq uint64) []byte {
	return appendNum(appendNum(append(append(b, "viol/"...), iri...), round), seq)
}

// ledgerPrefix is the listing prefix of a resource's evidence ("ev") or
// violation ("viol") records: one round's when round is non-nil, the whole
// history otherwise.
func ledgerPrefix(b []byte, kind, iri string, round *uint64) []byte {
	b = append(append(append(b, kind...), '/'), iri...)
	if round != nil {
		b = appendNum(b, *round)
	}
	return append(b, '|')
}

// numWidth is the width numbers in keys are zero-padded to, so that key
// order is numeric order; the sequence number ending an evidence or
// violation key is the key's last numWidth bytes.
const numWidth = 12

// appendNum appends '|' and n in decimal, zero-padded to numWidth digits;
// a longer number is written whole.
func appendNum(b []byte, n uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	b = append(b, '|')
	for range numWidth - len(d) {
		b = append(b, '0')
	}
	return append(b, d...)
}

// appendAddress appends a as Address.String writes it: "0x" and 40 hex
// digits.
func appendAddress(b []byte, a cryptoutil.Address) []byte {
	return hex.AppendEncode(append(b, "0x"...), a[:])
}

// checkKeyPart refuses an identifier that holds the key separator.
func checkKeyPart(method, field, id string) error {
	if strings.Contains(id, "|") {
		return contract.Revertf("%s: %s %q contains '|'", method, field, id)
	}
	return nil
}

// marker is the value under pendingKey and closedKey: requestMonitoring
// writes one pending marker per target, the target's first evidence for the
// open round deletes it, and reportUnresponsive writes the closure marker.
var marker = []byte{1}

// Call implements contract.Contract.
func (c *Contract) Call(env *contract.Env, method string, args []byte) ([]byte, error) {
	switch method {
	case "registerPod":
		return call(env, args, decodeRegisterPodArgs, c.registerPod)
	case "registerResource":
		return call(env, args, decodeRegisterResourceArgs, c.registerResource)
	case "updatePolicy":
		return call(env, args, decodeUpdatePolicyArgs, c.updatePolicy)
	case "withdrawResource":
		return call(env, args, decodeWithdrawResourceArgs, c.withdrawResource)
	case "registerDevice":
		return call(env, args, decodeRegisterDeviceArgs, c.registerDevice)
	case "recordGrant":
		return call(env, args, decodeRecordGrantArgs, c.recordGrant)
	case "confirmRetrieval":
		return call(env, args, decodeConfirmRetrievalArgs, c.confirmRetrieval)
	case "revokeGrant":
		return call(env, args, decodeRevokeGrantArgs, c.revokeGrant)
	case "requestMonitoring":
		return call(env, args, decodeRequestMonitoringArgs, c.requestMonitoring)
	case "submitEvidence":
		return call(env, args, decodeSubmitEvidenceArgs, c.submitEvidence)
	case "reportUnresponsive":
		return call(env, args, decodeReportUnresponsiveArgs, c.reportUnresponsive)
	default:
		return nil, contract.Revertf("unknown method %q", method)
	}
}

// --- storage helpers ---

// ledger is what a key is built on and read through: Env in a
// transaction, ReadEnv behind a query.
type ledger interface {
	Key() []byte
	Get(key []byte) ([]byte, bool, error)
}

// localKey is a key built on l.Key without the namespace: the key as error
// texts name it.
func localKey(l ledger, key []byte) []byte { return key[len(l.Key()):] }

// load reads the record under key into out, reporting whether there is one.
// A value that decode refuses — a JSON record of a data directory written
// before the record codec, for one — reverts the transaction naming the key
// (corruptRecord). It hands its decoder to decode, a func value, so the
// decoder escapes to the heap: one allocation a call. The reads monitoring
// makes per item call an in-place reader directly instead, which keeps its
// decoder on the stack (decodeResourceHead, decodeGrantHead,
// decodeDeviceKey, and readCounter's and noteResponse's own).
func load[T any](env *contract.Env, key []byte, out *T, decode func(*store.Dec, *T)) (bool, error) {
	raw, ok, err := env.Get(key)
	if err != nil || !ok {
		return false, err
	}
	return true, decodeStored(env, key, raw, out, decode)
}

// decodeStored decodes raw, the value stored under key, into out, reverting
// as load does on what decode refuses.
func decodeStored[T any](env *contract.Env, key, raw []byte, out *T, decode func(*store.Dec, *T)) error {
	d := store.NewDec(raw)
	decode(d, out)
	if err := d.Finish(); err != nil {
		return corruptRecord(env, key, err)
	}
	return nil
}

// corruptRecord is the revert of a transaction that read a value under key
// which its decoder refused with err.
func corruptRecord(env *contract.Env, key []byte, err error) error {
	return contract.Revertf("corrupt record at %s: %v", localKey(env, key), err)
}

// lastDecoded is a record one call decoded, kept with the stored bytes it
// was decoded from, so that the call's next read of the same bytes does not
// decode them again. It lives as long as the call that declares it: never
// in a map or on the Contract, so parallel executions share nothing.
type lastDecoded[T any] struct {
	raw []byte
	val *T
}

// load reads the record under key as the package-level load does — the
// same Get, gas and refusal text — and returns it, or nil when there is
// none. It decodes only when the stored bytes differ from those it decoded
// last; otherwise it returns that same value, which its callers therefore
// only read. Equal bytes decode to equal records, so which of the two a
// caller gets changes nothing.
func (m *lastDecoded[T]) load(env *contract.Env, key []byte, decode func(*store.Dec, *T)) (*T, error) {
	raw, ok, err := env.Get(key)
	if err != nil || !ok {
		return nil, err
	}
	if m.val == nil || !bytes.Equal(raw, m.raw) {
		v := new(T)
		if err := decodeStored(env, key, raw, v, decode); err != nil {
			return nil, err
		}
		m.raw, m.val = raw, v
	}
	return m.val, nil
}

// loadResourceHead reads the head of the ResourceRecord under key in place
// (decodeResourceHead) and returns it with the stored bytes, reporting
// whether there is one. It reverts on what load with decodeResourceRecord
// reverts on, with the same text.
func loadResourceHead(env *contract.Env, key []byte) (h resourceHead, raw []byte, ok bool, err error) {
	raw, ok, err = env.Get(key)
	if err != nil || !ok {
		return h, nil, false, err
	}
	if h, err = decodeResourceHead(raw); err != nil {
		return h, nil, false, corruptRecord(env, key, err)
	}
	return h, raw, true, nil
}

// call decodes a method's arguments and runs the method on them.
func call[A any](env *contract.Env, raw []byte, decode func(*store.Dec, *A), method func(*contract.Env, *A) ([]byte, error)) ([]byte, error) {
	var args A
	if err := decodeArgs(raw, &args, decode); err != nil {
		return nil, err
	}
	return method(env, &args)
}

// decodeArgs decodes a method's or a query's arguments: exactly raw, in the
// encoding of its …Args type, which the method name selects. Anything else
// reverts the transaction, or fails the query, with "bad args: …".
func decodeArgs[A any](raw []byte, args *A, decode func(*store.Dec, *A)) error {
	d := store.NewDec(raw)
	decode(d, args)
	return finishArgs(d)
}

// finishArgs ends the reading of arguments: what d has not read whole and
// exactly reverts, or fails the query, with "bad args: …".
func finishArgs(d *store.Dec) error {
	if err := d.Finish(); err != nil {
		return contract.Revertf("bad args: %v", err)
	}
	return nil
}

// readCounter reads the sequence counter under key, built on env.Key. A
// counter is a bare uvarint, no tag; a missing one reads as 0.
func readCounter(env *contract.Env, key []byte) (uint64, error) {
	raw, ok, err := env.Get(key)
	if err != nil || !ok {
		return 0, err
	}
	d := store.NewDec(raw)
	n := d.Uvarint()
	if err := d.Finish(); err != nil {
		return 0, corruptRecord(env, key, err)
	}
	return n, nil
}

// bumpCounter increments the sequence counter under key, built on env.Key,
// and returns its new value.
func bumpCounter(env *contract.Env, key []byte) (uint64, error) {
	n, err := readCounter(env, key)
	if err != nil {
		return 0, err
	}
	n++
	return n, env.Set(key, store.AppendUvarint(nil, n))
}

// seqs are one kind of sequence counter — evseq/ or violseq/, as key
// builds it — that one call advances, one per resource. Each is read on
// its first advance and written once, by flush, after the last: a list of
// n items on one resource costs one counter read and one write, not n of
// each. Nothing else the call does reads a counter, so every seq is the one
// a write per advance gives; only the gas differs (as EIP-2200 meters a
// slot written more than once by net change).
type seqs struct {
	key  func(b []byte, iri string) []byte
	last []counter
}

// counter is one resource's counter as seqs holds it: its latest value.
type counter struct {
	iri string
	n   uint64
}

// next advances iri's counter and returns its new value.
func (s *seqs) next(env *contract.Env, iri string) (uint64, error) {
	i := 0
	for i < len(s.last) && s.last[i].iri != iri {
		i++
	}
	if i == len(s.last) {
		n, err := readCounter(env, s.key(env.Key(), iri))
		if err != nil {
			return 0, err
		}
		s.last = append(s.last, counter{iri, n})
	}
	s.last[i].n++
	return s.last[i].n, nil
}

// flush writes every counter next advanced, with its last value.
func (s *seqs) flush(env *contract.Env) error {
	for _, c := range s.last {
		if err := env.Set(s.key(env.Key(), c.iri), store.AppendUvarint(nil, c.n)); err != nil {
			return err
		}
	}
	return nil
}

// --- pod initiation (Fig. 2(1)) ---

func (c *Contract) registerPod(env *contract.Env, args *RegisterPodArgs) ([]byte, error) {
	if args.OwnerWebID == "" || args.Location == "" {
		return nil, contract.Revertf("registerPod: ownerWebID and location are required")
	}
	var existing PodRecord
	if ok, err := load(env, podKey(env.Key(), args.OwnerWebID), &existing, decodePodRecord); err != nil {
		return nil, err
	} else if ok {
		return nil, contract.Revertf("registerPod: pod %q already registered", args.OwnerWebID)
	}
	if args.DefaultPolicy != nil {
		if err := args.DefaultPolicy.Validate(); err != nil {
			return nil, contract.Revertf("registerPod: invalid default policy: %v", err)
		}
	}
	rec := PodRecord{
		OwnerWebID:    args.OwnerWebID,
		Location:      args.Location,
		Owner:         env.Sender,
		DefaultPolicy: args.DefaultPolicy,
		RegisteredAt:  env.Block.Time,
	}
	record := appendPodRecord(nil, &rec)
	if err := env.Set(podKey(env.Key(), args.OwnerWebID), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicPodRegistered, args.OwnerWebID, nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- resource initiation (Fig. 2(2)) ---

func (c *Contract) registerResource(env *contract.Env, args *RegisterResourceArgs) ([]byte, error) {
	if args.ResourceIRI == "" || args.PodWebID == "" || args.Location == "" {
		return nil, contract.Revertf("registerResource: resource, podWebID and location are required")
	}
	if err := checkKeyPart("registerResource", "resource", args.ResourceIRI); err != nil {
		return nil, err
	}
	var pod PodRecord
	ok, err := load(env, podKey(env.Key(), args.PodWebID), &pod, decodePodRecord)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("registerResource: pod %q not registered", args.PodWebID)
	}
	if pod.Owner != env.Sender {
		return nil, contract.Revertf("registerResource: sender %s does not own pod %q", env.Sender, args.PodWebID)
	}
	if _, _, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI)); err != nil {
		return nil, err
	} else if ok {
		return nil, contract.Revertf("registerResource: resource %q already registered", args.ResourceIRI)
	}

	pol := args.Policy
	if pol == nil {
		// Fall back to the pod's default policy, re-bound to the resource.
		if pod.DefaultPolicy == nil {
			return nil, contract.Revertf("registerResource: no policy given and pod has no default")
		}
		clone := pod.DefaultPolicy.Clone()
		clone.ID = args.ResourceIRI + "#policy"
		clone.ResourceIRI = args.ResourceIRI
		pol = clone
	}
	if err := pol.Validate(); err != nil {
		return nil, contract.Revertf("registerResource: invalid policy: %v", err)
	}
	if pol.ResourceIRI != args.ResourceIRI {
		return nil, contract.Revertf("registerResource: policy is bound to %q, not %q", pol.ResourceIRI, args.ResourceIRI)
	}

	rec := ResourceRecord{
		ResourceIRI:  args.ResourceIRI,
		PodWebID:     args.PodWebID,
		Location:     args.Location,
		Description:  args.Description,
		Owner:        env.Sender,
		Policy:       pol,
		RegisteredAt: env.Block.Time,
	}
	record := appendResourceRecord(nil, &rec)
	if err := env.Set(resKey(env.Key(), args.ResourceIRI), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicResourceRegistered, args.ResourceIRI, nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- policy modification (Fig. 2(5)) ---

func (c *Contract) updatePolicy(env *contract.Env, args *UpdatePolicyArgs) ([]byte, error) {
	if args.Policy == nil {
		return nil, contract.Revertf("updatePolicy: missing policy")
	}
	head, raw, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("updatePolicy: resource %q not registered", args.ResourceIRI)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("updatePolicy: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}
	if err := args.Policy.Validate(); err != nil {
		return nil, contract.Revertf("updatePolicy: invalid policy: %v", err)
	}
	if args.Policy.ResourceIRI != args.ResourceIRI {
		return nil, contract.Revertf("updatePolicy: policy bound to %q, not %q", args.Policy.ResourceIRI, args.ResourceIRI)
	}
	if args.Policy.Version <= head.version {
		return nil, contract.Revertf("updatePolicy: version %d not greater than current %d",
			args.Policy.Version, head.version)
	}
	record, policyAt := spliceResourcePolicy(raw, head.flagAt, args.Policy)
	if err := env.Set(resKey(env.Key(), args.ResourceIRI), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicPolicyUpdated, args.ResourceIRI, record[policyAt:]); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) withdrawResource(env *contract.Env, args *WithdrawResourceArgs) ([]byte, error) {
	head, raw, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("withdrawResource: resource %q not registered", args.ResourceIRI)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("withdrawResource: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}
	if head.withdrawn {
		return nil, contract.Revertf("withdrawResource: already withdrawn")
	}
	if err := env.Set(resKey(env.Key(), args.ResourceIRI), withdrawnResource(raw)); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- device registration (TEE attestation) ---

func (c *Contract) registerDevice(env *contract.Env, args *RegisterDeviceArgs) ([]byte, error) {
	cert, err := cryptoutil.DecodeCertificate(args.Certificate)
	if err != nil {
		return nil, contract.Revertf("registerDevice: %v", err)
	}
	if err := cert.Verify(c.cfg.ManufacturerCAKey, env.Block.Time); err != nil {
		return nil, contract.Revertf("registerDevice: certificate rejected: %v", err)
	}
	if cert.Subject != env.Sender {
		return nil, contract.Revertf("registerDevice: certificate subject %s is not the sender %s",
			cert.Subject, env.Sender)
	}
	measurementHex, ok := cert.Claims["measurement"]
	if !ok {
		return nil, contract.Revertf("registerDevice: certificate lacks a measurement claim")
	}
	mraw, err := hex.DecodeString(measurementHex)
	if err != nil || len(mraw) != 32 {
		return nil, contract.Revertf("registerDevice: malformed measurement claim")
	}
	var measurement cryptoutil.Hash
	copy(measurement[:], mraw)

	rec := DeviceRecord{
		Device:       env.Sender,
		DeviceKey:    cert.SubjectKey,
		Measurement:  measurement,
		RegisteredAt: env.Block.Time,
	}
	if err := env.Set(devKey(env.Key(), env.Sender), appendDeviceRecord(nil, &rec)); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- grants (resource access bookkeeping, Fig. 2(4)) ---

func (c *Contract) recordGrant(env *contract.Env, args *RecordGrantArgs) ([]byte, error) {
	var rec ResourceRecord
	ok, err := load(env, resKey(env.Key(), args.ResourceIRI), &rec, decodeResourceRecord)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("recordGrant: resource %q not registered", args.ResourceIRI)
	}
	if rec.Withdrawn {
		return nil, contract.Revertf("recordGrant: resource %q is withdrawn from the market", args.ResourceIRI)
	}
	if rec.Owner != env.Sender {
		return nil, contract.Revertf("recordGrant: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}
	var dev DeviceRecord
	if ok, err := load(env, devKey(env.Key(), args.Device), &dev, decodeDeviceRecord); err != nil {
		return nil, err
	} else if !ok {
		return nil, contract.Revertf("recordGrant: device %s not registered", args.Device)
	}
	if args.Purpose == "" {
		return nil, contract.Revertf("recordGrant: purpose is required")
	}
	if !rec.Policy.PermitsPurpose(args.Purpose) {
		return nil, contract.Revertf("recordGrant: purpose %q not permitted by policy v%d",
			args.Purpose, rec.Policy.Version)
	}
	g := Grant{
		ResourceIRI: args.ResourceIRI,
		Consumer:    args.Consumer,
		Device:      args.Device,
		Purpose:     args.Purpose,
		GrantedAt:   env.Block.Time,
	}
	if err := env.Set(grantKey(env.Key(), args.ResourceIRI, args.Device), appendGrant(nil, &g)); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) confirmRetrieval(env *contract.Env, args *ConfirmRetrievalArgs) ([]byte, error) {
	var g Grant
	ok, err := load(env, grantKey(env.Key(), args.ResourceIRI, env.Sender), &g, decodeGrant)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("confirmRetrieval: no grant for device %s on %q", env.Sender, args.ResourceIRI)
	}
	if g.Revoked {
		return nil, contract.Revertf("confirmRetrieval: grant revoked")
	}
	if !g.RetrievedAt.IsZero() {
		return nil, contract.Revertf("confirmRetrieval: already confirmed")
	}
	g.RetrievedAt = env.Block.Time
	if err := env.Set(grantKey(env.Key(), args.ResourceIRI, env.Sender), appendGrant(nil, &g)); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) revokeGrant(env *contract.Env, args *RevokeGrantArgs) ([]byte, error) {
	head, _, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("revokeGrant: resource %q not registered", args.ResourceIRI)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("revokeGrant: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}
	var g Grant
	if ok, err := load(env, grantKey(env.Key(), args.ResourceIRI, args.Device), &g, decodeGrant); err != nil {
		return nil, err
	} else if !ok {
		return nil, contract.Revertf("revokeGrant: no grant for device %s", args.Device)
	}
	if g.Revoked {
		return nil, contract.Revertf("revokeGrant: already revoked")
	}
	g.Revoked = true
	if err := env.Set(grantKey(env.Key(), args.ResourceIRI, args.Device), appendGrant(nil, &g)); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- policy monitoring (Fig. 2(6)) ---

func (c *Contract) requestMonitoring(env *contract.Env, args *RequestMonitoringArgs) ([]byte, error) {
	head, _, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("requestMonitoring: resource %q not registered", args.ResourceIRI)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("requestMonitoring: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}

	keys, err := env.Keys(grantPrefix(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	var targets []cryptoutil.Address
	for _, k := range keys {
		key := append(env.Key(), k...)
		raw, ok, err := env.Get(key)
		if err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		g, err := decodeGrantHead(raw)
		if err != nil {
			return nil, corruptRecord(env, key, err)
		}
		if !g.revoked && !g.retrievedAt.IsZero() {
			targets = append(targets, g.device)
		}
	}

	n, err := bumpCounter(env, roundSeqKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	round := MonitoringRound{
		Round:       n,
		ResourceIRI: args.ResourceIRI,
		RequestedAt: env.Block.Time,
		Targets:     targets,
		Closed:      len(targets) == 0,
	}
	record := appendMonitoringRound(nil, &round)
	// The round record is written here and never again; what changes as
	// evidence arrives is which pending markers remain.
	if err := env.Set(roundKey(env.Key(), args.ResourceIRI, n), record); err != nil {
		return nil, err
	}
	for _, target := range targets {
		if err := env.Set(pendingKey(env.Key(), args.ResourceIRI, n, target), marker); err != nil {
			return nil, err
		}
	}
	if err := env.Emit(TopicMonitoringRequested, args.ResourceIRI, record); err != nil {
		return nil, err
	}
	return record, nil
}

// checkedEvidence is one item of a submitEvidence list between its passes:
// what checkEvidence read for it, and the refusal if the contract declines
// it. Items whose resources are stored as the same bytes share one decoded
// rec (checkEvidence), which the record pass only reads.
type checkedEvidence struct {
	rec         *ResourceRecord
	retrievedAt time.Time        // the grant's RetrievedAt
	key         *ecdsa.PublicKey // the device key the ledger holds
	refused     error
}

// submitEvidence records a list of signed evidence — one monitoring round's,
// typically — in three passes. The check pass reads, in list order, what
// each item is judged by; the verify pass checks the device signatures of
// the items still standing on the verifier pool (cryptoutil.VerifyAll);
// the record pass, in list order, records each accepted item. An item the
// contract refuses writes nothing and leaves its neighbours alone; the
// transaction reverts, with the first refusal, only when it accepted no
// item. So a list of one reverts as that evidence always did.
//
// The record pass writes no key the check pass reads (res/, dev/, grant/),
// so every item is judged on what it would have been judged on had the
// items run one after another, and the final state, events and seqs are
// theirs. The gas is theirs less the counter traffic a list saves: the
// record pass reads each evseq/ and violseq/ counter it advances once and
// writes it once, after the last item (seqs). Only a hard error — in a
// valid ledger, running out of gas — can surface earlier than it would
// have, and the meter then pins at the limit either way.
func (c *Contract) submitEvidence(env *contract.Env, args *SubmitEvidenceArgs) ([]byte, error) {
	if len(args.Signed) == 0 {
		return nil, contract.Revertf("submitEvidence: no evidence")
	}
	items := make([]checkedEvidence, len(args.Signed))
	var res lastDecoded[ResourceRecord]
	for i := range items {
		if err := c.checkEvidence(env, &args.Signed[i].Evidence, &items[i], &res); err != nil {
			return nil, err
		}
	}
	cryptoutil.VerifyAll(len(items), func(i int) {
		it := &items[i]
		if s := &args.Signed[i]; it.refused == nil && !cryptoutil.VerifyCached(it.key, s.signing, s.Signature) {
			it.refused = contract.Revertf("submitEvidence: evidence signature invalid")
		}
	})

	var firstRefusal error
	accepted := false
	outcomes := appendEvidenceOutcomes(nil, len(items))
	evSeqs, violSeqs := seqs{key: evSeqKey}, seqs{key: violSeqKey}
	for i := range items {
		if refused := items[i].refused; refused != nil {
			if firstRefusal == nil {
				firstRefusal = refused
			}
			outcomes = appendRefusedEvidence(outcomes, refused.Error())
			continue
		}
		seq, err := c.recordEvidence(env, &args.Signed[i].Evidence, &items[i], &evSeqs, &violSeqs)
		if err != nil {
			return nil, err
		}
		accepted = true
		outcomes = appendAcceptedEvidence(outcomes, seq)
	}
	if !accepted {
		return nil, firstRefusal
	}
	if err := evSeqs.flush(env); err != nil {
		return nil, err
	}
	return outcomes, violSeqs.flush(env)
}

// checkEvidence reads what one evidence is judged by — its resource, its
// device's key and its grant — into it, or sets it.refused. Every item
// reads its resource record and pays that read's gas, but res decodes it
// only when its bytes differ from those of the record decoded last: once
// for a list of one resource's evidence, once per run of items of one
// resource if a list interleaves them. The device key and the grant are
// read in place (decodeDeviceKey, decodeGrantHead). Decoding costs no gas,
// so the receipt is what decoding every item's records gave. The signature is
// checked against the key the ledger holds for the device NOW, later, by
// the verify pass. Every validator executes that check on the same bytes,
// and an optimistic pass the scheduler discards executes it again, so it
// goes through VerifyCached (see the package comment). A returned error
// reverts the transaction.
func (c *Contract) checkEvidence(env *contract.Env, ev *Evidence, it *checkedEvidence, res *lastDecoded[ResourceRecord]) error {
	var err error
	if it.rec, err = res.load(env, resKey(env.Key(), ev.ResourceIRI), decodeResourceRecord); err != nil {
		return err
	}
	if it.rec == nil {
		it.refused = contract.Revertf("submitEvidence: resource %q not registered", ev.ResourceIRI)
		return nil
	}
	key := devKey(env.Key(), ev.Device)
	raw, ok, err := env.Get(key)
	if err != nil {
		return err
	} else if !ok {
		it.refused = contract.Revertf("submitEvidence: device %s not registered", ev.Device)
		return nil
	}
	deviceKey, err := decodeDeviceKey(raw)
	if err != nil {
		return corruptRecord(env, key, err)
	}
	key = grantKey(env.Key(), ev.ResourceIRI, ev.Device)
	if raw, ok, err = env.Get(key); err != nil {
		return err
	} else if !ok {
		it.refused = contract.Revertf("submitEvidence: no grant for device %s on %q", ev.Device, ev.ResourceIRI)
		return nil
	}
	g, err := decodeGrantHead(raw)
	if err != nil {
		return corruptRecord(env, key, err)
	}
	it.retrievedAt = g.retrievedAt
	if it.key, _, err = cryptoutil.ParsePublicKey(deviceKey); err != nil {
		it.refused = contract.Revertf("submitEvidence: stored device key corrupt: %v", err)
	}
	return nil
}

// recordEvidence records one evidence that the check and verify passes
// accepted — its ev/ record, event, violations and round bookkeeping — and
// returns the record's seq, which evSeqs advances, as violSeqs does the
// violations'. Nothing here refuses: what fails reverts.
func (c *Contract) recordEvidence(env *contract.Env, ev *Evidence, it *checkedEvidence, evSeqs, violSeqs *seqs) (uint64, error) {
	findings := c.checkCompliance(it.rec, it.retrievedAt, ev)

	seq, err := evSeqs.next(env, ev.ResourceIRI)
	if err != nil {
		return 0, err
	}
	record := appendEvidenceRecord(nil, &EvidenceRecord{
		Seq:      seq,
		Evidence: *ev,
		Verified: true,
		Stored:   env.Block.Time,
		Round:    ev.Round,
		Findings: findings,
	})
	record, ref := withLedgerRef(record, ev.Round, seq)
	if err := env.Set(evKey(env.Key(), ev.ResourceIRI, ev.Round, seq), record); err != nil {
		return 0, err
	}
	if err := env.Emit(TopicEvidenceRecorded, ev.ResourceIRI, ref); err != nil {
		return 0, err
	}

	for _, kind := range findings {
		if err := c.recordViolation(env, violSeqs, ev.ResourceIRI, ev.Device, kind,
			fmt.Sprintf("evidence #%d round %d", seq, ev.Round), ev.Round); err != nil {
			return 0, err
		}
	}

	if ev.Round > 0 {
		if err := c.noteResponse(env, ev.ResourceIRI, ev.Round, ev.Device); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// noteResponse advances a monitoring round by one responding device: it
// deletes the device's pending marker, and the round closes with the last
// one. Only a target's first evidence for a still-open round counts:
// evidence from a device the round did not target, a repeat (neither has a
// pending marker) and evidence arriving after reportUnresponsive closed the
// round are all recorded by the caller but leave the round as it is.
func (c *Contract) noteResponse(env *contract.Env, iri string, round uint64, device cryptoutil.Address) error {
	if _, pending, err := env.Get(pendingKey(env.Key(), iri, round, device)); err != nil || !pending {
		return err
	}
	if _, closed, err := env.Get(closedKey(env.Key(), iri, round)); err != nil || closed {
		return err
	}
	return env.Delete(pendingKey(env.Key(), iri, round, device))
}

// checkCompliance evaluates evidence against the current policy and the
// RetrievedAt of its grant.
func (c *Contract) checkCompliance(rec *ResourceRecord, retrievedAt time.Time, ev *Evidence) []ViolationKind {
	var findings []ViolationKind
	pol := rec.Policy

	// Stale policy enforcement: a holder must enforce the latest version.
	if pol.Version > ev.PolicyVersion {
		findings = append(findings, ViolationStalePolicy)
	}

	// Retention: the copy must be gone by its deadline.
	if retrievedAt.IsZero() {
		retrievedAt = ev.RetrievedAt
	}
	if deadline, has := pol.DeleteDeadline(retrievedAt); has {
		if ev.StillStored && ev.GeneratedAt.After(deadline) {
			findings = append(findings, ViolationRetention)
		}
		if !ev.StillStored && !ev.DeletedAt.IsZero() && ev.DeletedAt.After(deadline) {
			findings = append(findings, ViolationRetention)
		}
	}

	// Purpose: every allowed use must match the policy's purposes.
	for _, u := range ev.Entries {
		if u.Allowed && !pol.PermitsPurpose(u.Purpose) {
			findings = append(findings, ViolationPurpose)
			break
		}
	}

	// Usage cap.
	if pol.MaxUses > 0 && ev.UseCount > pol.MaxUses {
		findings = append(findings, ViolationMaxUses)
	}
	return findings
}

// recordViolation stores one violation under the seq violSeqs advances,
// and emits it.
func (c *Contract) recordViolation(env *contract.Env, violSeqs *seqs, iri string, device cryptoutil.Address, kind ViolationKind, detail string, round uint64) error {
	seq, err := violSeqs.next(env, iri)
	if err != nil {
		return err
	}
	v := Violation{
		Seq:         seq,
		ResourceIRI: iri,
		Device:      device,
		Kind:        kind,
		Detail:      detail,
		DetectedAt:  env.Block.Time,
		Round:       round,
	}
	record, ref := withLedgerRef(appendViolation(nil, &v), round, seq)
	if err := env.Set(violKey(env.Key(), iri, round, seq), record); err != nil {
		return err
	}
	return env.Emit(TopicViolationDetected, iri, ref)
}

func (c *Contract) reportUnresponsive(env *contract.Env, args *ReportUnresponsiveArgs) ([]byte, error) {
	head, _, ok, err := loadResourceHead(env, resKey(env.Key(), args.ResourceIRI))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("reportUnresponsive: resource %q not registered", args.ResourceIRI)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("reportUnresponsive: sender %s does not own %q", env.Sender, args.ResourceIRI)
	}
	round, silent, err := loadRound(env, args.ResourceIRI, args.Round)
	if errors.Is(err, ErrNotFound) {
		return nil, contract.Revertf("reportUnresponsive: round %d not found", args.Round)
	}
	if err != nil {
		return nil, err
	}
	if round.Closed {
		return nil, contract.Revertf("reportUnresponsive: round %d already closed", args.Round)
	}
	violSeqs := seqs{key: violSeqKey}
	for _, target := range silent {
		if err := c.recordViolation(env, &violSeqs, args.ResourceIRI, target, ViolationUnresponsive,
			fmt.Sprintf("no evidence for round %d", args.Round), args.Round); err != nil {
			return nil, err
		}
	}
	if err := violSeqs.flush(env); err != nil {
		return nil, err
	}
	round.Closed = true
	if err := env.Set(closedKey(env.Key(), args.ResourceIRI, args.Round), marker); err != nil {
		return nil, err
	}
	return appendMonitoringRound(nil, &round), nil
}

// fetch reads and decodes the record under key, built on l.Key. A missing
// record wraps ErrNotFound.
func fetch[T any](l ledger, key []byte, out *T, decode func(*store.Dec, *T)) error {
	raw, ok, err := l.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, localKey(l, key))
	}
	d := store.NewDec(raw)
	decode(d, out)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("distexchange: corrupt record at %s: %w", localKey(l, key), err)
	}
	return nil
}

// loadRound assembles a MonitoringRound from its three kinds of keys: the
// write-once round record (targets), the pending markers (a target without
// one has responded; Responded is in target order) and the closure marker.
// The round is closed when no pending marker remains or reportUnresponsive
// wrote the closure marker. It also returns the targets that have not
// responded. A missing round wraps ErrNotFound.
func loadRound(l ledger, iri string, n uint64) (round MonitoringRound, silent []cryptoutil.Address, err error) {
	if err := fetch(l, roundKey(l.Key(), iri, n), &round, decodeMonitoringRound); err != nil {
		return round, nil, err
	}
	_, reported, err := l.Get(closedKey(l.Key(), iri, n))
	if err != nil {
		return round, nil, err
	}
	for _, target := range round.Targets {
		_, pending, err := l.Get(pendingKey(l.Key(), iri, n, target))
		if err != nil {
			return round, nil, err
		}
		if pending {
			silent = append(silent, target)
		} else {
			round.Responded = append(round.Responded, target)
		}
	}
	round.Closed = reported || len(silent) == 0
	return round, silent, nil
}

// --- read-only queries ---

// Read implements contract.Contract. A record is answered with its stored
// bytes and a listing with appendListing of them; the Decode functions read
// both.
func (c *Contract) Read(env *contract.ReadEnv, method string, args []byte) ([]byte, error) {
	switch method {
	case "getPod":
		var a GetPodArgs
		if err := decodeArgs(args, &a, decodeGetPodArgs); err != nil {
			return nil, err
		}
		return readRecord(env, podKey(env.Key(), a.OwnerWebID))
	case "getResource":
		iri, err := getResourceIRI(args)
		if err != nil {
			return nil, err
		}
		return readRecord(env, append(resKey(env.Key(), ""), iri...))
	case "getDevice":
		var a GetDeviceArgs
		if err := decodeArgs(args, &a, decodeGetDeviceArgs); err != nil {
			return nil, err
		}
		return readRecord(env, devKey(env.Key(), a.Device))
	case "listResources":
		return c.listResources(env, args)
	case "getGrants":
		var a GetGrantsArgs
		if err := decodeArgs(args, &a, decodeGetGrantsArgs); err != nil {
			return nil, err
		}
		keys, err := env.Keys(grantPrefix(env.Key(), a.ResourceIRI))
		if err != nil {
			return nil, err
		}
		return readListing(env, keys, tagGrant)
	case "getViolations":
		var a GetViolationsArgs
		if err := decodeArgs(args, &a, decodeGetViolationsArgs); err != nil {
			return nil, err
		}
		return readLedger(env, "viol", tagViolation, a.ResourceIRI, a.Round)
	case "getEvidence":
		var a GetEvidenceArgs
		if err := decodeArgs(args, &a, decodeGetEvidenceArgs); err != nil {
			return nil, err
		}
		return readLedger(env, "ev", tagEvidence, a.ResourceIRI, a.Round)
	case "getMonitoringRound":
		var a GetMonitoringRoundArgs
		if err := decodeArgs(args, &a, decodeGetMonitoringRoundArgs); err != nil {
			return nil, err
		}
		round, _, err := loadRound(env, a.ResourceIRI, a.Round)
		if err != nil {
			return nil, err
		}
		return appendMonitoringRound(nil, &round), nil
	default:
		return nil, fmt.Errorf("distexchange: unknown query %q", method)
	}
}

// ErrNotFound is returned (wrapped) by queries for missing records.
var ErrNotFound = fmt.Errorf("distexchange: not found")

// readRecord answers with the record under key, built on env.Key.
func readRecord(env *contract.ReadEnv, key []byte) ([]byte, error) {
	raw, ok, err := env.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, localKey(env, key))
	}
	return raw, nil
}

// readLedger lists a resource's evidence ("ev") or violation ("viol")
// records in Seq order: one round's when round is non-nil, the whole
// history otherwise.
func readLedger(env *contract.ReadEnv, kind string, tag byte, iri string, round *uint64) ([]byte, error) {
	keys, err := env.Keys(ledgerPrefix(env.Key(), kind, iri, round))
	if err != nil {
		return nil, err
	}
	if round == nil {
		// Keys sort by round first; Seq is the fixed-width key suffix.
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][len(keys[i])-numWidth:] < keys[j][len(keys[j])-numWidth:]
		})
	}
	return readListing(env, keys, tag)
}

// readListing answers with the records stored under keys (as Keys lists
// them, without the namespace), undecoded but for the tag they must open
// with: a listing names the key of a record that is not one, which the
// reply's reader no longer could.
func readListing(env *contract.ReadEnv, keys []string, tag byte) ([]byte, error) {
	records := make([][]byte, 0, len(keys))
	for _, k := range keys {
		raw, ok, err := env.Get(append(env.Key(), k...))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if len(raw) == 0 || raw[0] != tag {
			return nil, fmt.Errorf("distexchange: corrupt record at %s", k)
		}
		records = append(records, raw)
	}
	return appendListing(nil, records), nil
}

// listResources answers with every resource not withdrawn. It takes no
// arguments.
func (c *Contract) listResources(env *contract.ReadEnv, args []byte) ([]byte, error) {
	if len(args) != 0 {
		return nil, contract.Revertf("bad args: listResources takes none, got %d bytes", len(args))
	}
	keys, err := env.Keys(resKey(env.Key(), ""))
	if err != nil {
		return nil, err
	}
	records := make([][]byte, 0, len(keys))
	for _, k := range keys {
		raw, ok, err := env.Get(append(env.Key(), k...))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		withdrawn, ok := decodeResourceWithdrawn(raw)
		if !ok {
			return nil, fmt.Errorf("distexchange: corrupt record at %s", k)
		}
		if !withdrawn {
			records = append(records, raw)
		}
	}
	return appendListing(nil, records), nil
}
