package distexchange

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
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

// keyPart is an identifier a key is built of: a string, or a view of a
// method's arguments.
type keyPart interface{ ~string | ~[]byte }

// Storage key builders. Each appends its key to b — Env.Key or
// ReadEnv.Key, which hold the contract's namespace — and returns it, so a
// key is built in one buffer and never passes through a string. Composite
// keys join their parts with '|'. A hex address or a zero-padded number
// never holds one, and registerResource refuses a resource IRI that does
// (checkKeyPart): such an IRI would name another resource's keys, its
// grant and ledger listings included. A WebID is only ever a whole key,
// pod/<webID>, so it may hold one.
func podKey[S keyPart](b []byte, webID S) []byte { return append(append(b, "pod/"...), webID...) }
func resKey[S keyPart](b []byte, iri S) []byte   { return append(append(b, "res/"...), iri...) }
func devKey(b []byte, a cryptoutil.Address) []byte {
	return appendAddress(append(b, "dev/"...), a)
}
func grantKey[S keyPart](b []byte, iri S, d cryptoutil.Address) []byte {
	return appendAddress(grantPrefix(b, iri), d)
}
func grantPrefix[S keyPart](b []byte, iri S) []byte {
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
func ledgerPrefix[S keyPart](b []byte, kind string, iri S, round *uint64) []byte {
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
func checkKeyPart(method, field string, id []byte) error {
	if bytes.IndexByte(id, '|') >= 0 {
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
		return call(env, args, readRegisterPodArgs, c.registerPod)
	case "registerResource":
		return call(env, args, readRegisterResourceArgs, c.registerResource)
	case "updatePolicy":
		return call(env, args, readUpdatePolicyArgs, c.updatePolicy)
	case "withdrawResource":
		return call(env, args, readIRIArgs, c.withdrawResource)
	case "registerDevice":
		return call(env, args, decodeRegisterDeviceArgs, c.registerDevice)
	case "recordGrant":
		return call(env, args, readRecordGrantArgs, c.recordGrant)
	case "confirmRetrieval":
		return call(env, args, readIRIArgs, c.confirmRetrieval)
	case "revokeGrant":
		return call(env, args, readRevokeGrantArgs, c.revokeGrant)
	case "requestMonitoring":
		return call(env, args, readIRIArgs, c.requestMonitoring)
	case "submitEvidence":
		return call(env, args, decodeSubmitEvidenceArgs, c.submitEvidence)
	case "reportUnresponsive":
		iri, round, err := readIRIRoundArgs(args)
		if err != nil {
			return nil, err
		}
		return c.reportUnresponsive(env, string(iri), round)
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

// load reads the record under key in place with read, and returns it and
// the stored bytes, reporting whether there is one. A value that read
// refuses — a JSON record of a data directory written before the record
// codec, for one — reverts the transaction naming the key (corruptRecord).
// read takes the stored bytes and returns what it read by value, so its
// decoder stays on its stack: decodeResourceHead, decodePodHead,
// decodeGrantHead and decodeDeviceKey read what the market and monitoring
// methods check without allocating.
func load[H any](env *contract.Env, key []byte, read func([]byte) (H, error)) (h H, raw []byte, ok bool, err error) {
	raw, ok, err = env.Get(key)
	if err != nil || !ok {
		return h, nil, false, err
	}
	if h, err = read(raw); err != nil {
		return h, nil, false, corruptRecord(env, key, err)
	}
	return h, raw, true, nil
}

// corruptRecord is the revert of a transaction that read a value under key
// which its decoder refused with err.
func corruptRecord(env *contract.Env, key []byte, err error) error {
	return contract.Revertf("corrupt record at %s: %v", localKey(env, key), err)
}

// lastResource is a resource record one call decoded, kept with the stored
// bytes it was decoded from, so that the call's next read of the same bytes
// does not decode them again. It lives as long as the call that declares
// it: never in a map or on the Contract, so parallel executions share
// nothing.
type lastResource struct {
	raw []byte
	val *ResourceRecord
}

// load reads the resource record under key with load's Get, gas and
// refusal text, and returns it decoded, or nil when there is none. It
// decodes only when the stored bytes differ from those it decoded last;
// otherwise it returns that same value, which its callers therefore only
// read. Equal bytes decode to equal records, so which of the two a caller
// gets changes nothing. Its decoder is on its stack.
func (m *lastResource) load(env *contract.Env, key []byte) (*ResourceRecord, error) {
	raw, ok, err := env.Get(key)
	if err != nil || !ok {
		return nil, err
	}
	if m.val == nil || !bytes.Equal(raw, m.raw) {
		v := new(ResourceRecord)
		d := store.NewDec(raw)
		decodeResourceRecord(d, v)
		if err := d.Finish(); err != nil {
			return nil, corruptRecord(env, key, err)
		}
		m.raw, m.val = raw, v
	}
	return m.val, nil
}

// call reads a method's arguments and runs the method on them.
func call[A any](env *contract.Env, raw []byte, read func([]byte) (A, error), method func(*contract.Env, A) ([]byte, error)) ([]byte, error) {
	args, err := read(raw)
	if err != nil {
		return nil, err
	}
	return method(env, args)
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

// The market methods decode nothing: they read their arguments and the
// records they check in place, and write what decoding and re-encoding
// would (the package comment, "Record format").

func (c *Contract) registerPod(env *contract.Env, a registerPodView) ([]byte, error) {
	if len(a.ownerWebID) == 0 || len(a.location) == 0 {
		return nil, contract.Revertf("registerPod: ownerWebID and location are required")
	}
	if _, _, ok, err := load(env, podKey(env.Key(), a.ownerWebID), decodePodHead); err != nil {
		return nil, err
	} else if ok {
		return nil, contract.Revertf("registerPod: pod %q already registered", a.ownerWebID)
	}
	if pol := &a.defaultPolicy; len(pol.Bytes()) > 0 {
		if err := pol.Validate(); err != nil {
			return nil, contract.Revertf("registerPod: invalid default policy: %v", err)
		}
	}
	record := appendNewPod(nil, a.ownerWebID, a.location, env.Sender, env.Block.Time, a.defaultPolicy.Bytes())
	if err := env.Set(podKey(env.Key(), a.ownerWebID), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicPodRegistered, string(a.ownerWebID), nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- resource initiation (Fig. 2(2)) ---

func (c *Contract) registerResource(env *contract.Env, a registerResourceView) ([]byte, error) {
	if len(a.iri) == 0 || len(a.podWebID) == 0 || len(a.location) == 0 {
		return nil, contract.Revertf("registerResource: resource, podWebID and location are required")
	}
	if err := checkKeyPart("registerResource", "resource", a.iri); err != nil {
		return nil, err
	}
	pod, _, ok, err := load(env, podKey(env.Key(), a.podWebID), decodePodHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("registerResource: pod %q not registered", a.podWebID)
	}
	if pod.owner != env.Sender {
		return nil, contract.Revertf("registerResource: sender %s does not own pod %q", env.Sender, a.podWebID)
	}
	if _, _, ok, err := load(env, resKey(env.Key(), a.iri), decodeResourceHead); err != nil {
		return nil, err
	} else if ok {
		return nil, contract.Revertf("registerResource: resource %q already registered", a.iri)
	}

	pol := a.policy
	if len(pol.Bytes()) == 0 {
		// Fall back to the pod's default policy, re-bound to the resource.
		if len(pod.defaultPolicy.Bytes()) == 0 {
			return nil, contract.Revertf("registerResource: no policy given and pod has no default")
		}
		pol = reboundPolicy(pod.defaultPolicy.Bytes(), string(a.iri))
	}
	if err := pol.Validate(); err != nil {
		return nil, contract.Revertf("registerResource: invalid policy: %v", err)
	}
	if !bytes.Equal(pol.ResourceIRI(), a.iri) {
		return nil, contract.Revertf("registerResource: policy is bound to %q, not %q", pol.ResourceIRI(), a.iri)
	}
	record := appendNewResource(nil, &a, env.Sender, env.Block.Time, pol.Bytes())
	if err := env.Set(resKey(env.Key(), a.iri), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicResourceRegistered, string(a.iri), nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// reboundPolicy returns the policy whose record encoding is enc — a pod's
// default, which decodePodHead accepted — bound to the resource iri, read
// from a fresh encoding.
func reboundPolicy(enc []byte, iri string) policy.Record {
	var p policy.Policy
	policy.DecodeRecord(store.NewDec(enc), &p)
	p.ID = iri + "#policy"
	p.ResourceIRI = iri
	return policy.ReadRecord(store.NewDec(policy.AppendRecord(nil, &p)))
}

// --- policy modification (Fig. 2(5)) ---

func (c *Contract) updatePolicy(env *contract.Env, a updatePolicyView) ([]byte, error) {
	if len(a.policy.Bytes()) == 0 {
		return nil, contract.Revertf("updatePolicy: missing policy")
	}
	head, raw, ok, err := load(env, resKey(env.Key(), a.iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("updatePolicy: resource %q not registered", a.iri)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("updatePolicy: sender %s does not own %q", env.Sender, a.iri)
	}
	if err := a.policy.Validate(); err != nil {
		return nil, contract.Revertf("updatePolicy: invalid policy: %v", err)
	}
	if !bytes.Equal(a.policy.ResourceIRI(), a.iri) {
		return nil, contract.Revertf("updatePolicy: policy bound to %q, not %q", a.policy.ResourceIRI(), a.iri)
	}
	if a.policy.Version() <= head.policy.Version() {
		return nil, contract.Revertf("updatePolicy: version %d not greater than current %d",
			a.policy.Version(), head.policy.Version())
	}
	record, policyAt := spliceResourcePolicy(raw, head.flagAt, a.policy.Bytes())
	if err := env.Set(resKey(env.Key(), a.iri), record); err != nil {
		return nil, err
	}
	if err := env.Emit(TopicPolicyUpdated, string(a.iri), record[policyAt:]); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) withdrawResource(env *contract.Env, iri []byte) ([]byte, error) {
	head, raw, ok, err := load(env, resKey(env.Key(), iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("withdrawResource: resource %q not registered", iri)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("withdrawResource: sender %s does not own %q", env.Sender, iri)
	}
	if head.withdrawn {
		return nil, contract.Revertf("withdrawResource: already withdrawn")
	}
	if err := env.Set(resKey(env.Key(), iri), withFlag(raw, 1)); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- device registration (TEE attestation) ---

func (c *Contract) registerDevice(env *contract.Env, args RegisterDeviceArgs) ([]byte, error) {
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

func (c *Contract) recordGrant(env *contract.Env, a recordGrantView) ([]byte, error) {
	res, _, ok, err := load(env, resKey(env.Key(), a.iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("recordGrant: resource %q not registered", a.iri)
	}
	if res.withdrawn {
		return nil, contract.Revertf("recordGrant: resource %q is withdrawn from the market", a.iri)
	}
	if res.owner != env.Sender {
		return nil, contract.Revertf("recordGrant: sender %s does not own %q", env.Sender, a.iri)
	}
	if _, _, ok, err := load(env, devKey(env.Key(), a.device), decodeDeviceKey); err != nil {
		return nil, err
	} else if !ok {
		return nil, contract.Revertf("recordGrant: device %s not registered", a.device)
	}
	if len(a.purpose) == 0 {
		return nil, contract.Revertf("recordGrant: purpose is required")
	}
	if !res.policy.PermitsPurpose(policy.PurposeOf(a.purpose)) {
		return nil, contract.Revertf("recordGrant: purpose %q not permitted by policy v%d",
			a.purpose, res.policy.Version())
	}
	record := appendNewGrant(nil, a.iri, a.consumer, a.device, a.purpose, env.Block.Time)
	if err := env.Set(grantKey(env.Key(), a.iri, a.device), record); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) confirmRetrieval(env *contract.Env, iri []byte) ([]byte, error) {
	g, raw, ok, err := load(env, grantKey(env.Key(), iri, env.Sender), decodeGrantHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("confirmRetrieval: no grant for device %s on %q", env.Sender, iri)
	}
	if g.revoked {
		return nil, contract.Revertf("confirmRetrieval: grant revoked")
	}
	if !g.retrievedAt.IsZero() {
		return nil, contract.Revertf("confirmRetrieval: already confirmed")
	}
	if err := env.Set(grantKey(env.Key(), iri, env.Sender), retrievedGrant(raw, &g, env.Block.Time)); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Contract) revokeGrant(env *contract.Env, a revokeGrantView) ([]byte, error) {
	head, _, ok, err := load(env, resKey(env.Key(), a.iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("revokeGrant: resource %q not registered", a.iri)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("revokeGrant: sender %s does not own %q", env.Sender, a.iri)
	}
	g, raw, ok, err := load(env, grantKey(env.Key(), a.iri, a.device), decodeGrantHead)
	if err != nil {
		return nil, err
	} else if !ok {
		return nil, contract.Revertf("revokeGrant: no grant for device %s", a.device)
	}
	if g.revoked {
		return nil, contract.Revertf("revokeGrant: already revoked")
	}
	if err := env.Set(grantKey(env.Key(), a.iri, a.device), withFlag(raw, len(raw)-1)); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- policy monitoring (Fig. 2(6)) ---

func (c *Contract) requestMonitoring(env *contract.Env, view []byte) ([]byte, error) {
	iri := string(view)
	head, _, ok, err := load(env, resKey(env.Key(), iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("requestMonitoring: resource %q not registered", iri)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("requestMonitoring: sender %s does not own %q", env.Sender, iri)
	}

	keys, err := env.Keys(grantPrefix(env.Key(), iri))
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

	n, err := bumpCounter(env, roundSeqKey(env.Key(), iri))
	if err != nil {
		return nil, err
	}
	round := MonitoringRound{
		Round:       n,
		ResourceIRI: iri,
		RequestedAt: env.Block.Time,
		Targets:     targets,
		Closed:      len(targets) == 0,
	}
	record := appendMonitoringRound(nil, &round)
	// The round record is written here and never again; what changes as
	// evidence arrives is which pending markers remain.
	if err := env.Set(roundKey(env.Key(), iri, n), record); err != nil {
		return nil, err
	}
	for _, target := range targets {
		if err := env.Set(pendingKey(env.Key(), iri, n, target), marker); err != nil {
			return nil, err
		}
	}
	if err := env.Emit(TopicMonitoringRequested, iri, record); err != nil {
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
func (c *Contract) submitEvidence(env *contract.Env, args SubmitEvidenceArgs) ([]byte, error) {
	if len(args.Signed) == 0 {
		return nil, contract.Revertf("submitEvidence: no evidence")
	}
	items := make([]checkedEvidence, len(args.Signed))
	var res lastResource
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
func (c *Contract) checkEvidence(env *contract.Env, ev *Evidence, it *checkedEvidence, res *lastResource) error {
	var err error
	if it.rec, err = res.load(env, resKey(env.Key(), ev.ResourceIRI)); err != nil {
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

func (c *Contract) reportUnresponsive(env *contract.Env, iri string, n uint64) ([]byte, error) {
	head, _, ok, err := load(env, resKey(env.Key(), iri), decodeResourceHead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, contract.Revertf("reportUnresponsive: resource %q not registered", iri)
	}
	if head.owner != env.Sender {
		return nil, contract.Revertf("reportUnresponsive: sender %s does not own %q", env.Sender, iri)
	}
	round, silent, err := loadRound(env, iri, n)
	if errors.Is(err, ErrNotFound) {
		return nil, contract.Revertf("reportUnresponsive: round %d not found", n)
	}
	if err != nil {
		return nil, err
	}
	if round.Closed {
		return nil, contract.Revertf("reportUnresponsive: round %d already closed", n)
	}
	violSeqs := seqs{key: violSeqKey}
	for _, target := range silent {
		if err := c.recordViolation(env, &violSeqs, iri, target, ViolationUnresponsive,
			fmt.Sprintf("no evidence for round %d", n), n); err != nil {
			return nil, err
		}
	}
	if err := violSeqs.flush(env); err != nil {
		return nil, err
	}
	round.Closed = true
	if err := env.Set(closedKey(env.Key(), iri, n), marker); err != nil {
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
		webID, err := readIRIArgs(args)
		if err != nil {
			return nil, err
		}
		return readRecord(env, podKey(env.Key(), webID))
	case "getResource":
		iri, err := readIRIArgs(args)
		if err != nil {
			return nil, err
		}
		return readRecord(env, resKey(env.Key(), iri))
	case "getDevice":
		a, err := decodeGetDeviceArgs(args)
		if err != nil {
			return nil, err
		}
		return readRecord(env, devKey(env.Key(), a.Device))
	case "listResources":
		return c.listResources(env, args)
	case "getGrants":
		iri, err := readIRIArgs(args)
		if err != nil {
			return nil, err
		}
		keys, err := env.Keys(grantPrefix(env.Key(), iri))
		if err != nil {
			return nil, err
		}
		return readListing(env, keys, tagGrant)
	case "getViolations", "getEvidence":
		iri, round, err := readLedgerArgs(args)
		if err != nil {
			return nil, err
		}
		if method == "getEvidence" {
			return readLedger(env, "ev", tagEvidence, iri, round)
		}
		return readLedger(env, "viol", tagViolation, iri, round)
	case "getMonitoringRound":
		iri, n, err := readIRIRoundArgs(args)
		if err != nil {
			return nil, err
		}
		round, _, err := loadRound(env, string(iri), n)
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
func readLedger(env *contract.ReadEnv, kind string, tag byte, iri []byte, round *uint64) ([]byte, error) {
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
