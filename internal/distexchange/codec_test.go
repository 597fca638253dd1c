package distexchange

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/store"
)

// gen draws record values with no regard for what the contract would
// write: separator and multi-byte characters in strings, zero times, nil
// policies and lists, integers of every width, and now and then a list
// longer than store.DecodeCapHint.
type gen struct{ *rand.Rand }

func (g gen) text() string {
	alphabet := []string{"", "a", "|", "{", "ü", "\x00", "use", "https://alice.pod/"}
	var b strings.Builder
	for range g.Intn(5) {
		b.WriteString(alphabet[g.Intn(len(alphabet))])
	}
	return b.String()
}

func (g gen) when() time.Time {
	if g.Intn(4) == 0 {
		return time.Time{}
	}
	return time.Unix(0, g.Int63()-g.Int63()).UTC()
}

func (g gen) uint() uint64 {
	if g.Intn(8) == 0 {
		return math.MaxUint64
	}
	return g.Uint64() >> g.Intn(64)
}

func (g gen) address() (a cryptoutil.Address) {
	g.Read(a[:])
	return a
}

// count is a list length: mostly short, nil one time in four, past the
// decoders' capacity hint one time in sixty-four.
func (g gen) count() int {
	switch {
	case g.Intn(64) == 0:
		return store.DecodeCapHint + 1 + g.Intn(8)
	case g.Intn(4) == 0:
		return 0
	}
	return 1 + g.Intn(4)
}

func (g gen) addresses() []cryptoutil.Address {
	var out []cryptoutil.Address
	for range g.count() {
		out = append(out, g.address())
	}
	return out
}

func (g gen) policy() *policy.Policy {
	if g.Intn(3) == 0 {
		return nil
	}
	p := &policy.Policy{
		ID: g.text(), ResourceIRI: g.text(), OwnerWebID: g.text(), Version: g.uint(), IssuedAt: g.when(),
		MaxRetention: time.Duration(g.Int63() - g.Int63()), ExpiresAt: g.when(), MaxUses: g.uint(),
		ProhibitSharing: g.Intn(2) == 0, NotifyOnUse: g.Intn(2) == 0,
	}
	for range g.count() {
		p.AllowedPurposes = append(p.AllowedPurposes, policy.Purpose(g.text()))
	}
	for range g.Intn(3) {
		p.AllowedActions = append(p.AllowedActions, policy.Action(g.text()))
	}
	return p
}

func (g gen) pod() PodRecord {
	return PodRecord{OwnerWebID: g.text(), Location: g.text(), Owner: g.address(), DefaultPolicy: g.policy(), RegisteredAt: g.when()}
}

func (g gen) resource() ResourceRecord {
	return ResourceRecord{
		ResourceIRI: g.text(), PodWebID: g.text(), Location: g.text(), Description: g.text(),
		Owner: g.address(), Policy: g.policy(), RegisteredAt: g.when(), Withdrawn: g.Intn(2) == 0,
	}
}

func (g gen) device() DeviceRecord {
	r := DeviceRecord{Device: g.address(), RegisteredAt: g.when()}
	if g.Intn(4) != 0 {
		r.DeviceKey = make([]byte, 1+g.Intn(65))
		g.Read(r.DeviceKey)
	}
	g.Read(r.Measurement[:])
	return r
}

func (g gen) grant() Grant {
	return Grant{
		ResourceIRI: g.text(), Consumer: g.address(), Device: g.address(), Purpose: policy.Purpose(g.text()),
		GrantedAt: g.when(), RetrievedAt: g.when(), Revoked: g.Intn(2) == 0,
	}
}

func (g gen) round() MonitoringRound {
	return MonitoringRound{
		Round: g.uint(), ResourceIRI: g.text(), RequestedAt: g.when(),
		Targets: g.addresses(), Responded: g.addresses(), Closed: g.Intn(2) == 0,
	}
}

func (g gen) evidence() EvidenceRecord {
	r := EvidenceRecord{
		Seq: g.uint(), Verified: g.Intn(2) == 0, Stored: g.when(), Round: g.uint(),
		Evidence: Evidence{
			ResourceIRI: g.text(), Device: g.address(), Round: g.uint(), PolicyVersion: g.uint(), StillStored: g.Intn(2) == 0,
			DeletedAt: g.when(), RetrievedAt: g.when(), UseCount: g.uint(), GeneratedAt: g.when(),
		},
	}
	for range g.count() {
		r.Evidence.Entries = append(r.Evidence.Entries, UsageEntry{
			At: g.when(), Action: policy.Action(g.text()), Purpose: policy.Purpose(g.text()), Allowed: g.Intn(2) == 0,
		})
	}
	for range g.count() {
		r.Findings = append(r.Findings, ViolationKind(g.text()))
	}
	return r
}

// outcomes draws what submitEvidence returns.
func (g gen) outcomes() []EvidenceOutcome {
	var out []EvidenceOutcome
	for range g.count() {
		if g.Intn(3) == 0 {
			out = append(out, EvidenceOutcome{Err: &RevertError{Method: methodSubmitEvidence, Reason: g.text()}})
		} else {
			out = append(out, EvidenceOutcome{Seq: g.uint()})
		}
	}
	return out
}

func (g gen) violation() Violation {
	return Violation{
		Seq: g.uint(), ResourceIRI: g.text(), Device: g.address(), Kind: ViolationKind(g.text()),
		Detail: g.text(), DetectedAt: g.when(), Round: g.uint(),
	}
}

// checkRecords is the round-trip property of one record type over its
// frozen vectors and 300 drawn values: decode∘append is the identity on
// values and append∘decode on encodings; no proper prefix of an encoding
// decodes, nor does one that opens with another byte than its tag (the '{'
// of a JSON record included); and a listing of the encodings decodes to the
// values.
func checkRecords[T any](t *testing.T, name string, seed int64, vectors []T, draw func(gen) T, appendTo func([]byte, *T) []byte, decode func([]byte) (T, error), decodeAll func([]byte) ([]T, error)) {
	t.Run(name, func(t *testing.T) {
		g := gen{rand.New(rand.NewSource(seed))}
		values := vectors
		for range 300 {
			values = append(values, draw(g))
		}
		var encodings [][]byte
		for i := range values {
			enc := appendTo(nil, &values[i])
			encodings = append(encodings, enc)
			back, err := decode(enc)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if !reflect.DeepEqual(back, values[i]) {
				t.Fatalf("case %d:\n got %+v\nwant %+v", i, back, values[i])
			}
			if again := appendTo(nil, &back); !bytes.Equal(again, enc) {
				t.Fatalf("case %d: re-encoding differs:\n got %x\nwant %x", i, again, enc)
			}
			if _, err := decode(append([]byte{'{'}, enc[1:]...)); !errors.Is(err, store.ErrCodec) {
				t.Fatalf("case %d: a '{'-opening record decoded (err %v)", i, err)
			}
			if _, err := decode(append(enc[:len(enc):len(enc)], 0)); !errors.Is(err, store.ErrCodec) {
				t.Fatalf("case %d: a record with a trailing byte decoded (err %v)", i, err)
			}
			if len(enc) > 2048 {
				continue // every prefix of a long list's encoding is quadratic work
			}
			for cut := range len(enc) {
				if _, err := decode(enc[:cut]); !errors.Is(err, store.ErrCodec) {
					t.Fatalf("case %d: the %d-byte prefix of %d bytes decoded (err %v)", i, cut, len(enc), err)
				}
			}
		}
		if decodeAll == nil {
			return
		}
		// Listings: none, one, and more records than the capacity hint.
		for _, n := range []int{0, 1, len(values), store.DecodeCapHint + 5} {
			var want []T
			var records [][]byte
			for i := range n {
				want = append(want, values[i%len(values)])
				records = append(records, encodings[i%len(values)])
			}
			listing := appendListing(nil, records)
			got, err := decodeAll(listing)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("listing of %d: err %v, %d records decoded", n, err, len(got))
			}
			if n > 0 {
				if _, err := decodeAll(listing[:len(listing)-1]); !errors.Is(err, store.ErrCodec) {
					t.Fatalf("listing of %d less its last byte decoded (err %v)", n, err)
				}
			}
		}
	})
}

func TestRecordCodecRoundTrip(t *testing.T) {
	v := recordVectors()
	checkRecords(t, "PodRecord", 1, v.pods, gen.pod, appendPodRecord, DecodePodRecord, nil)
	checkRecords(t, "ResourceRecord", 2, v.resources, gen.resource, appendResourceRecord, DecodeResourceRecord, DecodeResourceRecords)
	checkRecords(t, "DeviceRecord", 3, v.devices, gen.device, appendDeviceRecord, DecodeDeviceRecord, nil)
	checkRecords(t, "Grant", 4, v.grants, gen.grant, appendGrant,
		func(b []byte) (Grant, error) { return decodeRecord(b, decodeGrant) }, DecodeGrants)
	checkRecords(t, "MonitoringRound", 5, v.rounds, gen.round, appendMonitoringRound, DecodeMonitoringRound, nil)
	checkRecords(t, "EvidenceRecord", 7, v.evidence, gen.evidence, appendEvidenceRecord,
		func(b []byte) (EvidenceRecord, error) { return decodeRecord(b, decodeEvidenceRecord) }, DecodeEvidenceRecords)
	checkRecords(t, "Violation", 8, v.violations, gen.violation, appendViolation,
		func(b []byte) (Violation, error) { return decodeRecord(b, decodeViolation) }, DecodeViolations)
	checkRecords(t, "EvidenceOutcomes", 10, v.outcomes, gen.outcomes, appendOutcomes, DecodeEvidenceOutcomes, nil)
	checkRecords(t, "Policy", 9, v.policies, func(g gen) policy.Policy {
		for {
			if p := g.policy(); p != nil {
				return *p
			}
		}
	}, func(dst []byte, p *policy.Policy) []byte { return policy.AppendRecord(dst, p) }, DecodePolicy, nil)
}

// TestResourceRecordTail: the policy's own encoding is the tail of the
// resource record's, which is what lets PolicyUpdated carry stored bytes;
// and the Withdrawn flag sits where the market listing reads it.
func TestResourceRecordTail(t *testing.T) {
	g := gen{rand.New(rand.NewSource(10))}
	for range 200 {
		r := g.resource()
		record := appendResourceRecord(nil, &r)
		if withdrawn, ok := decodeResourceWithdrawn(record); !ok || withdrawn != r.Withdrawn {
			t.Fatalf("withdrawn flag read as %v (ok %v), want %v", withdrawn, ok, r.Withdrawn)
		}
		if tail := appendOptPolicy(nil, r.Policy); !bytes.HasSuffix(record, tail) {
			t.Fatalf("the record\n%x\ndoes not end with its policy's flag and encoding\n%x", record, tail)
		}
	}
	for _, raw := range [][]byte{nil, {tagResource}, {'{', '"'}, {tagResource, 2}, {tagGrant, 0}} {
		if _, ok := decodeResourceWithdrawn(raw); ok {
			t.Errorf("% x read as a resource record", raw)
		}
	}
}

// checkResourceHead holds decodeResourceHead and the two splices to the
// full codec on data: the head reader accepts exactly what
// decodeResourceRecord accepts, refuses with the same error, and reads the
// same fields; for an accepted record, the updatePolicy splice with each of
// policies is appendResourceRecord's encoding with that policy, the
// withdrawResource splice is its encoding with Withdrawn set, and neither
// writes data.
func checkResourceHead(t *testing.T, data []byte, policies []*policy.Policy) {
	t.Helper()
	stored := bytes.Clone(data)
	rec, recErr := DecodeResourceRecord(data)
	head, err := decodeResourceHead(data)
	switch {
	case recErr == nil && err != nil:
		t.Fatalf("decodeResourceHead refuses\n%x\nwhich decodeResourceRecord accepts: %v", data, err)
	case recErr != nil && err == nil:
		t.Fatalf("decodeResourceHead accepts\n%x\nwhich decodeResourceRecord refuses: %v", data, recErr)
	case recErr != nil:
		if err.Error() != recErr.Error() {
			t.Fatalf("refusals of\n%x\ndiffer: head %q, record %q", data, err, recErr)
		}
		return
	}
	var version uint64
	if rec.Policy != nil {
		version = rec.Policy.Version
	}
	flagAt := len(appendResourceRecord(nil, &rec)) - len(appendOptPolicy(nil, rec.Policy))
	if head.withdrawn != rec.Withdrawn || head.owner != rec.Owner ||
		head.version != version || head.flagAt != flagAt {
		t.Fatalf("head of\n%x\nreads %+v, the record %+v", data, head, rec)
	}
	for _, p := range policies {
		updated := rec
		updated.Policy = p
		want := appendResourceRecord(nil, &updated)
		wantAt := flagAt + 1
		if got, gotAt := spliceResourcePolicy(data, head.flagAt, p); !bytes.Equal(got, want) || gotAt != wantAt {
			t.Fatalf("policy splice of\n%x\nis\n%x (policy at %d), want\n%x (at %d)", data, got, gotAt, want, wantAt)
		}
	}
	withdrawn := rec
	withdrawn.Withdrawn = true
	if got, want := withdrawnResource(data), appendResourceRecord(nil, &withdrawn); !bytes.Equal(got, want) {
		t.Fatalf("withdraw splice of\n%x\nis\n%x, want\n%x", data, got, want)
	}
	if !bytes.Equal(data, stored) {
		t.Fatalf("a splice wrote the stored record")
	}
}

// checkGrantHead holds decodeGrantHead to decodeGrant on data: it accepts
// exactly what decodeGrant accepts, refuses with the same error, and reads
// the same device, RetrievedAt and Revoked.
func checkGrantHead(t *testing.T, data []byte) {
	t.Helper()
	g, recErr := decodeRecord(data, decodeGrant)
	head, err := decodeGrantHead(data)
	switch {
	case recErr == nil && err != nil:
		t.Fatalf("decodeGrantHead refuses\n%x\nwhich decodeGrant accepts: %v", data, err)
	case recErr != nil && err == nil:
		t.Fatalf("decodeGrantHead accepts\n%x\nwhich decodeGrant refuses: %v", data, recErr)
	case recErr != nil:
		if err.Error() != recErr.Error() {
			t.Fatalf("refusals of\n%x\ndiffer: head %q, grant %q", data, err, recErr)
		}
		return
	}
	if head.device != g.Device || head.retrievedAt != g.RetrievedAt || head.revoked != g.Revoked {
		t.Fatalf("head of\n%x\nreads %+v, the grant %+v", data, head, g)
	}
}

// checkDeviceKey holds decodeDeviceKey to decodeDeviceRecord on data: it
// accepts exactly what decodeDeviceRecord accepts, refuses with the same
// error, and returns the same DeviceKey, as a view of data.
func checkDeviceKey(t *testing.T, data []byte) {
	t.Helper()
	rec, recErr := DecodeDeviceRecord(data)
	key, err := decodeDeviceKey(data)
	switch {
	case recErr == nil && err != nil:
		t.Fatalf("decodeDeviceKey refuses\n%x\nwhich decodeDeviceRecord accepts: %v", data, err)
	case recErr != nil && err == nil:
		t.Fatalf("decodeDeviceKey accepts\n%x\nwhich decodeDeviceRecord refuses: %v", data, recErr)
	case recErr != nil:
		if err.Error() != recErr.Error() {
			t.Fatalf("refusals of\n%x\ndiffer: key reader %q, record %q", data, err, recErr)
		}
		return
	}
	if !bytes.Equal(key, rec.DeviceKey) {
		t.Fatalf("device key of\n%x\nreads %x, the record %x", data, key, rec.DeviceKey)
	}
	if len(key) > 0 && !bytes.Contains(data, key) {
		t.Fatalf("device key %x is not a view of\n%x", key, data)
	}
}

// TestGrantHeadAndDeviceKeyMatchRecords runs checkGrantHead and
// checkDeviceKey over generated grants and device records, whole, cut
// short, with a byte more and with one byte changed, and each over the
// other's records.
func TestGrantHeadAndDeviceKeyMatchRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen{rng}
	var records [][]byte
	for range 300 {
		gr, dev := g.grant(), g.device()
		records = append(records, appendGrant(nil, &gr), appendDeviceRecord(nil, &dev))
	}
	for _, record := range records {
		changed := bytes.Clone(record)
		changed[rng.Intn(len(changed))] ^= byte(1 + rng.Intn(255))
		for _, data := range [][]byte{record, record[:rng.Intn(len(record))], append(bytes.Clone(record), 0), changed} {
			checkGrantHead(t, data)
			checkDeviceKey(t, data)
		}
	}
}

// splicePolicies are the policies checkResourceHead splices in.
func splicePolicies() []*policy.Policy {
	v := recordVectors()
	return []*policy.Policy{nil, &v.policies[0], &v.policies[1]}
}

// TestResourceHeadMatchesRecord runs checkResourceHead over the frozen
// vectors and generated records, whole, cut short and with one byte
// changed.
func TestResourceHeadMatchesRecord(t *testing.T) {
	policies := splicePolicies()
	v := recordVectors()
	rng := rand.New(rand.NewSource(11))
	g := gen{rng}
	records := make([][]byte, 0, len(v.resources)+300)
	for i := range v.resources {
		records = append(records, appendResourceRecord(nil, &v.resources[i]))
	}
	for range 300 {
		r := g.resource()
		records = append(records, appendResourceRecord(nil, &r))
	}
	for _, record := range records {
		checkResourceHead(t, record, policies)
		checkResourceHead(t, record[:rng.Intn(len(record))], policies)
		checkResourceHead(t, append(bytes.Clone(record), 0), policies)
		changed := bytes.Clone(record)
		changed[rng.Intn(len(changed))] ^= byte(1 + rng.Intn(255))
		checkResourceHead(t, changed, policies)
	}
}

// TestResourceHeadAllocatesNothing pins the in-place reads at no
// allocation: the resource head, the grant head and the device key.
func TestResourceHeadAllocatesNothing(t *testing.T) {
	v := recordVectors()
	record := appendResourceRecord(nil, &v.resources[0])
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeResourceHead(record); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decodeResourceHead: %.0f allocations, want 0", got)
	}
	grant := appendGrant(nil, &v.grants[0])
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeGrantHead(grant); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decodeGrantHead: %.0f allocations, want 0", got)
	}
	device := appendDeviceRecord(nil, &v.devices[0])
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeDeviceKey(device); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decodeDeviceKey: %.0f allocations, want 0", got)
	}
}

// TestRecordCodecAllocations pins what the execution path's most frequent
// decode and its largest append allocate.
func TestRecordCodecAllocations(t *testing.T) {
	v := recordVectors()
	// The record's four strings, the policy, its three strings and its two
	// lists. The lists' two purposes and two actions are vocabulary words,
	// which decode as the policy package's constants (policy.PurposeOf,
	// policy.ActionOf); at 32b20b0, which copied them, this made 14.
	record := appendResourceRecord(nil, &v.resources[0])
	var rec ResourceRecord
	if got := testing.AllocsPerRun(100, func() {
		d := store.NewDec(record)
		decodeResourceRecord(d, &rec)
	}); got != 10 {
		t.Errorf("decodeResourceRecord: %.0f allocations, want 10", got)
	}
	// The buffer, sized up front.
	ev := v.evidence[0]
	if got := testing.AllocsPerRun(100, func() { _ = appendEvidenceRecord(nil, &ev) }); got != 1 {
		t.Errorf("appendEvidenceRecord: %.0f allocations, want 1", got)
	}
}

// appendOutcomes encodes outcomes the way submitEvidence builds its return
// value: item by item, an accepted evidence as its record's seq.
func appendOutcomes(dst []byte, outcomes *[]EvidenceOutcome) []byte {
	dst = appendEvidenceOutcomes(dst, len(*outcomes))
	for i := range *outcomes {
		var refused *RevertError
		if o := &(*outcomes)[i]; errors.As(o.Err, &refused) {
			dst = appendRefusedEvidence(dst, refused.Reason)
		} else {
			dst = appendAcceptedEvidence(dst, o.Seq)
		}
	}
	return dst
}

// relist re-encodes a decoded listing.
func relist[T any](vs []T, appendTo func([]byte, *T) []byte) []byte {
	records := make([][]byte, len(vs))
	for i := range vs {
		records[i] = appendTo(nil, &vs[i])
	}
	return appendListing(nil, records)
}

// FuzzRecordDecode feeds every decoder arbitrary bytes. None may panic or
// allocate out of proportion to its input, and whatever one accepts must
// re-encode to exactly the input: a record has one encoding. The in-place
// readers and the resource splices must agree with the full codec
// (checkResourceHead, checkGrantHead, checkDeviceKey).
//
// CI smoke-runs this with -fuzz=FuzzRecordDecode -fuzztime=30s.
func FuzzRecordDecode(f *testing.F) {
	for _, enc := range recordVectors().encodings() {
		f.Add(enc)
		f.Add(appendListing(nil, [][]byte{enc, enc}))
	}
	// Words outside the action and purpose vocabularies, which decode as
	// copies rather than as the package constants.
	unknown := recordVectors()
	unknown.policies[0].AllowedActions = []policy.Action{"exfiltrate", policy.ActionUse}
	unknown.policies[0].AllowedPurposes = []policy.Purpose{"resale"}
	unknown.grants[0].Purpose = "resale"
	unknown.evidence[0].Evidence.Entries[0].Action = "exfiltrate"
	unknown.evidence[0].Evidence.Entries[0].Purpose = "resale"
	f.Add(policy.AppendRecord(nil, &unknown.policies[0]))
	f.Add(appendGrant(nil, &unknown.grants[0]))
	f.Add(appendEvidenceRecord(nil, &unknown.evidence[0]))
	f.Add([]byte(`{"resource":"https://alice.pod/web/browsing.csv"}`))
	f.Add(store.AppendUvarint(nil, 1<<40)) // a listing that claims more records than bytes
	// Records under the retired tag 0x26, which a ledger written before the
	// round's progress record was dropped still holds.
	for _, retired := range [][]byte{{0x26, 0x10, 0xac, 0x02, 0x01}, {0x26, 0, 0, 0}} {
		f.Add(retired)
		f.Add(appendListing(nil, [][]byte{retired, retired}))
	}
	policies := splicePolicies()

	f.Fuzz(func(t *testing.T, data []byte) {
		checkResourceHead(t, data, policies)
		checkGrantHead(t, data)
		checkDeviceKey(t, data)
		try := func(name string, roundTrip func() ([]byte, error)) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			again, err := roundTrip()
			runtime.ReadMemStats(&after)
			// The largest record value is under 512 bytes, and a decoder
			// reserves at most one value per input byte.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+1024*uint64(len(data)) {
				t.Fatalf("%s: %d bytes allocated over %d bytes of input", name, grew, len(data))
			}
			if err != nil {
				if !errors.Is(err, store.ErrCodec) {
					t.Fatalf("%s: undocumented error class: %v", name, err)
				}
				return
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s accepted\n%x\nand re-encodes it as\n%x", name, data, again)
			}
		}
		try("PodRecord", func() ([]byte, error) {
			v, err := DecodePodRecord(data)
			return appendPodRecord(nil, &v), err
		})
		try("ResourceRecord", func() ([]byte, error) {
			v, err := DecodeResourceRecord(data)
			return appendResourceRecord(nil, &v), err
		})
		try("DeviceRecord", func() ([]byte, error) {
			v, err := DecodeDeviceRecord(data)
			return appendDeviceRecord(nil, &v), err
		})
		try("Grant", func() ([]byte, error) {
			v, err := decodeRecord(data, decodeGrant)
			return appendGrant(nil, &v), err
		})
		try("MonitoringRound", func() ([]byte, error) {
			v, err := DecodeMonitoringRound(data)
			return appendMonitoringRound(nil, &v), err
		})
		try("EvidenceRecord", func() ([]byte, error) {
			v, err := decodeRecord(data, decodeEvidenceRecord)
			return appendEvidenceRecord(nil, &v), err
		})
		try("Violation", func() ([]byte, error) {
			v, err := decodeRecord(data, decodeViolation)
			return appendViolation(nil, &v), err
		})
		try("EvidenceOutcomes", func() ([]byte, error) {
			v, err := DecodeEvidenceOutcomes(data)
			return appendOutcomes(nil, &v), err
		})
		try("Policy", func() ([]byte, error) {
			v, err := DecodePolicy(data)
			return policy.AppendRecord(nil, &v), err
		})
		try("counter", func() ([]byte, error) {
			// What bumpCounter reads: a bare uvarint.
			d := store.NewDec(data)
			v := d.Uvarint()
			return store.AppendUvarint(nil, v), d.Finish()
		})
		try("listing of ResourceRecord", func() ([]byte, error) {
			vs, err := DecodeResourceRecords(data)
			return relist(vs, appendResourceRecord), err
		})
		try("listing of Grant", func() ([]byte, error) {
			vs, err := DecodeGrants(data)
			return relist(vs, appendGrant), err
		})
		try("listing of EvidenceRecord", func() ([]byte, error) {
			vs, err := DecodeEvidenceRecords(data)
			return relist(vs, appendEvidenceRecord), err
		})
		try("listing of Violation", func() ([]byte, error) {
			vs, err := DecodeViolations(data)
			return relist(vs, appendViolation), err
		})
	})
}

// TestJSONRecordRevertsNamingItsKey: a data directory written before the
// record codec holds JSON records. There is no second decoder for them: a
// transaction that reads one reverts naming the key and changes nothing, a
// listing names the key too, and a single-record reply fails in the
// client's decoder.
func TestJSONRecordRevertsNamingItsKey(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	prefix := f.deAddr.String() + "/"
	key := string(resKey(nil, iri))
	f.plant(prefix+key, []byte(`{"resource":"`+iri+`","podWebID":"https://alice.pod/profile#me","policy":{"version":1}}`))
	st := f.node.State()
	snapshot := func() map[string]string {
		out := make(map[string]string)
		for _, k := range st.Keys(prefix) {
			v, _ := st.Get([]byte(k))
			out[k] = string(v)
		}
		return out
	}
	before := snapshot()

	v2 := alicePolicy().NextVersion(t0.Add(time.Hour))
	_, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: v2})
	var revert *RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "corrupt record at "+key) {
		t.Fatalf("updatePolicy over a JSON record: %v, want a revert naming %s", err, key)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the reverted transaction changed the contract's state:\n%v\n%v", before, after)
	}
	if events := f.emitted(chain.EventFilter{Topic: TopicPolicyUpdated}); len(events) != 0 {
		t.Fatalf("the reverted transaction emitted %d PolicyUpdated events", len(events))
	}
	if _, err := f.alice.ListResources(); err == nil || !strings.Contains(err.Error(), "corrupt record at "+key) {
		t.Fatalf("listResources over a JSON record: %v, want an error naming %s", err, key)
	}
	if _, err := f.alice.GetResource(iri); !errors.Is(err, store.ErrCodec) {
		t.Fatalf("getResource over a JSON record: %v, want store.ErrCodec", err)
	}
}

// TestGasIndependentOfBlockTime runs the eight §V-4 operations — the very
// same signed transactions — over two chains whose block times differ in
// how many trailing zeros their nanoseconds have. Records hold fixed-width
// timestamps, so every operation costs the same gas on both; when they held
// RFC3339Nano text it did not.
func TestGasIndependentOfBlockTime(t *testing.T) {
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()}))
	alice, device := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	pol := alicePolicy()
	iri := pol.ResourceIRI
	const webID = "https://alice.pod/profile#me"
	var m cryptoutil.Hash
	cert, err := ca.Issue(device, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	certRaw := cert.Encode()
	ev := Evidence{
		ResourceIRI: iri, Device: device.Address(), Round: 1, PolicyVersion: 2, StillStored: true,
		RetrievedAt: t0, UseCount: 1, GeneratedAt: t0.Add(time.Minute),
		Entries: []UsageEntry{{At: t0.Add(time.Second), Action: policy.ActionUse, Purpose: policy.PurposeWebAnalytics, Allowed: true}},
	}
	sig, err := device.Sign(ev.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		key    *cryptoutil.KeyPair
		method string
		args   any
	}{
		{alice, "registerPod", RegisterPodArgs{OwnerWebID: webID, Location: "https://alice.pod/"}},
		{alice, "registerResource", RegisterResourceArgs{ResourceIRI: iri, PodWebID: webID, Location: iri, Policy: pol}},
		{device, "registerDevice", RegisterDeviceArgs{Certificate: certRaw}},
		{alice, "recordGrant", RecordGrantArgs{ResourceIRI: iri, Consumer: device.Address(), Device: device.Address(), Purpose: policy.PurposeWebAnalytics}},
		{device, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: iri}},
		{alice, "updatePolicy", UpdatePolicyArgs{ResourceIRI: iri, Policy: pol.NextVersion(t0.Add(time.Minute))}},
		{alice, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: iri}},
		{device, "submitEvidence", SubmitEvidenceArgs{Signed: []SignedEvidence{{Evidence: ev, Signature: sig}}}},
	}
	txs := make([]*chain.Tx, len(steps))
	for i, s := range steps {
		if txs[i], err = chain.NewTx(s.key, 0, deAddr, s.method, s.args, DefaultGasLimit); err != nil {
			t.Fatal(err)
		}
	}
	gasAt := func(genesis time.Time) []uint64 {
		st := chain.NewOverlay(chain.NewState())
		gas := make([]uint64, len(txs))
		for i, tx := range txs {
			r := rt.ExecuteTx(st, tx, chain.BlockContext{Number: uint64(i + 1), Time: genesis.Add(time.Duration(i) * time.Second)})
			if !r.Succeeded() {
				t.Fatalf("%s at %v: %s", tx.Method, genesis, r.Err)
			}
			gas[i] = r.GasUsed
		}
		return gas
	}
	round, ragged := gasAt(t0.Add(500_000_000)), gasAt(t0.Add(123_456_789))
	for i, tx := range txs {
		if round[i] != ragged[i] {
			t.Errorf("%s: %d gas at ….500000000, %d at ….123456789", tx.Method, round[i], ragged[i])
		}
	}
}

// execWorld runs DE App transactions straight on an overlay at one block,
// for the pins of what one method's execution allocates, from the
// runtime's entry to the receipt.
type execWorld struct {
	t      testing.TB
	ca     *cryptoutil.Authority // the TEE manufacturer the contract trusts
	rt     *contract.Runtime
	deAddr cryptoutil.Address
	ov     *chain.Overlay
	nonces map[cryptoutil.Address]uint64
}

var execBlock = chain.BlockContext{Number: 1, Time: t0}

func newExecWorld(t testing.TB) *execWorld {
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	return &execWorld{
		t: t, ca: ca, rt: rt, deAddr: rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()})),
		ov: chain.NewOverlay(chain.NewState()), nonces: map[cryptoutil.Address]uint64{},
	}
}

// tx signs method's call with key's next nonce.
func (w *execWorld) tx(key *cryptoutil.KeyPair, method string, args any) *chain.Tx {
	w.t.Helper()
	tx, err := chain.NewTx(key, w.nonces[key.Address()], w.deAddr, method, args, DefaultGasLimit)
	if err != nil {
		w.t.Fatal(err)
	}
	w.nonces[key.Address()]++
	return tx
}

func (w *execWorld) exec(tx *chain.Tx) {
	if r := w.rt.ExecuteTx(w.ov, tx, execBlock); !r.Succeeded() {
		w.t.Fatalf("%s: %s", tx.Method, r.Err)
	}
}

func (w *execWorld) must(key *cryptoutil.KeyPair, method string, args any) {
	w.t.Helper()
	w.exec(w.tx(key, method, args))
}

// execWrites executes tx, which must succeed, and returns its receipt and
// the keys whose value it set, changed or deleted, without the DE App's
// namespace, in key order.
func (w *execWorld) execWrites(tx *chain.Tx) (*chain.Receipt, []string) {
	w.t.Helper()
	snapshot := func() map[string]string {
		m := map[string]string{}
		for _, k := range w.ov.Keys("") {
			v, _ := w.ov.Get([]byte(k))
			m[k] = string(v)
		}
		return m
	}
	before := snapshot()
	r := w.rt.ExecuteTx(w.ov, tx, execBlock)
	if !r.Succeeded() {
		w.t.Fatalf("%s: %s", tx.Method, r.Err)
	}
	after := snapshot()
	var written []string
	for k, v := range after {
		if old, ok := before[k]; !ok || old != v {
			written = append(written, k)
		}
	}
	for k := range before {
		if _, ok := after[k]; !ok {
			written = append(written, k)
		}
	}
	namespace := w.deAddr.String() + "/"
	for i, k := range written {
		written[i] = strings.TrimPrefix(k, namespace)
	}
	sort.Strings(written)
	return r, written
}

// allocs reports what executing tx allocates, the overlay reverted after
// each run.
func (w *execWorld) allocs(tx *chain.Tx) float64 {
	cp := w.ov.Checkpoint()
	return testing.AllocsPerRun(100, func() {
		w.exec(tx)
		w.ov.RevertTo(cp)
	})
}

const allocsWebID, allocsIRI = "https://alice.pod/profile#me", "https://alice.pod/data.csv"

// withResource registers owner's pod and a resource under policy.New's
// policy, and returns the policy.
func (w *execWorld) withResource(owner *cryptoutil.KeyPair) *policy.Policy {
	pol := policy.New(allocsIRI, allocsWebID, t0)
	w.must(owner, "registerPod", RegisterPodArgs{OwnerWebID: allocsWebID, Location: "https://alice.pod/"})
	w.must(owner, "registerResource", RegisterResourceArgs{ResourceIRI: allocsIRI, PodWebID: allocsWebID, Location: allocsIRI, Policy: pol})
	return pol
}

// TestUpdatePolicyAllocations pins what one updatePolicy execution
// allocates (Fig. 2(5)). The ledger hands values over — the read of the
// resource record is a view of the stored bytes, the state keeps the record
// the contract writes, the PolicyUpdated event keeps its payload — and the
// record is read in place and spliced, not decoded and re-encoded. At
// d74da50, which copied at each of those three points, the same execution
// made 25 allocations; at 9a84427, which decoded the record, 22; at
// 805d97e, whose runtime allocated each call's Env and gas meter, 13.
func TestUpdatePolicyAllocations(t *testing.T) {
	const want = 11
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	pol := w.withResource(owner)
	update := w.tx(owner, "updatePolicy", UpdatePolicyArgs{ResourceIRI: allocsIRI, Policy: pol.NextVersion(t0.Add(time.Minute))})
	if got := w.allocs(update); got > want {
		t.Errorf("updatePolicy: %.0f allocations, want at most %d (22 at 9a84427, which decoded the resource record)", got, want)
	}
}

// withRetrievedGrant registers device, grants it owner's resource and
// confirms its retrieval: the device is then a target of a monitoring
// round.
func (w *execWorld) withRetrievedGrant(owner, device *cryptoutil.KeyPair) *cryptoutil.KeyPair {
	var m cryptoutil.Hash
	cert, err := w.ca.Issue(device, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
	if err != nil {
		w.t.Fatal(err)
	}
	w.must(device, "registerDevice", RegisterDeviceArgs{Certificate: cert.Encode()})
	w.must(owner, "recordGrant", RecordGrantArgs{ResourceIRI: allocsIRI, Consumer: device.Address(), Device: device.Address(), Purpose: policy.PurposeAcademic})
	w.must(device, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: allocsIRI})
	return device
}

// TestRevokeGrantAllocations and TestRequestMonitoringAllocations pin two
// owner-only methods that read nothing of the resource record but its
// owner, and so read it in place. At 9a84427, which decoded it, each made
// 9 more allocations: 22 and 31. At 805d97e, whose runtime allocated each
// call's Env and gas meter, each made 2 more: 13 and 22. requestMonitoring
// also reads each grant and its round counter in place; at 32b20b0, which
// decoded whole grants through load, it made 20, and at e7eaaf7, which
// also wrote a round-progress record, 15.
func TestRevokeGrantAllocations(t *testing.T) {
	const want = 11
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner)
	device := w.withRetrievedGrant(owner, cryptoutil.MustGenerateKey())
	revoke := w.tx(owner, "revokeGrant", RevokeGrantArgs{ResourceIRI: allocsIRI, Device: device.Address()})
	if got := w.allocs(revoke); got > want {
		t.Errorf("revokeGrant: %.0f allocations, want at most %d", got, want)
	}
}

func TestRequestMonitoringAllocations(t *testing.T) {
	const want = 13
	if got := requestMonitoringAllocs(t, 1); got > want {
		t.Errorf("requestMonitoring: %.0f allocations, want at most %d", got, want)
	}
}

// TestRequestMonitoringMarginalAllocations pins what one more retrieved
// grant costs a monitoring request: 16 grants may allocate at most 15 × 2
// more than 1. The measured difference is 19: mostly each target's
// pending-marker key, which the state keeps as a string, and the growth
// of the listed keys and of the target list. At 32b20b0, which decoded
// each whole grant and its two strings through load's heap decoder, it
// was 79.
func TestRequestMonitoringMarginalAllocations(t *testing.T) {
	const perGrant = 2
	allocs1 := requestMonitoringAllocs(t, 1)
	allocs16 := requestMonitoringAllocs(t, 16)
	if got := allocs16 - allocs1; got > 15*perGrant {
		t.Errorf("16 grants: %.0f allocations, 1 grant: %.0f; the 15 more grants made %.0f, want at most %d",
			allocs16, allocs1, got, 15*perGrant)
	}
}

// requestMonitoringAllocs reports what one requestMonitoring of a resource
// with n retrieved grants allocates.
func requestMonitoringAllocs(t *testing.T, n int) float64 {
	w, request := monitoringRequest(t, n)
	return w.allocs(request)
}

// monitoringRequest registers a resource with n retrieved grants and
// returns its owner's requestMonitoring transaction.
func monitoringRequest(t testing.TB, n int) (*execWorld, *chain.Tx) {
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner)
	for range n {
		w.withRetrievedGrant(owner, cryptoutil.MustGenerateKey())
	}
	return w, w.tx(owner, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: allocsIRI})
}

// keysApart returns n fresh keys that the parsed-key table holds at once:
// parsing every one of them again allocates nothing, so no two share a
// slot.
func keysApart(n int) []*cryptoutil.KeyPair {
	var keys []*cryptoutil.KeyPair
	for len(keys) < n {
		try := append(keys, cryptoutil.MustGenerateKey())
		pub := make([][]byte, len(try))
		for i, k := range try {
			pub[i] = k.PublicBytes()
		}
		if testing.AllocsPerRun(1, func() {
			for _, b := range pub {
				cryptoutil.ParsePublicKey(b)
			}
		}) == 0 {
			keys = try
		}
	}
	return keys
}

// signedApart signs evs[i] with keys[i] so that the verified-signature
// table holds every signature at once: verifying them all again allocates
// nothing, so no two share a slot. The table is direct-mapped, and sixteen
// fresh signatures share one of its 8 192 slots about once in seventy
// draws (120 pairs); an execution would then verify both of them again,
// 20 allocations more, which is what made TestSubmitEvidenceAllocations
// fail now and then. ECDSA signatures are randomized, so signing again
// draws new slots.
func signedApart(t testing.TB, keys []*cryptoutil.KeyPair, evs []Evidence) []SignedEvidence {
	t.Helper()
	pubs := make([]*ecdsa.PublicKey, len(keys))
	msgs := make([][]byte, len(evs))
	for i := range evs {
		pub, _, err := cryptoutil.ParsePublicKey(keys[i].PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		pubs[i], msgs[i] = pub, evs[i].SigningBytes()
	}
	signed := make([]SignedEvidence, len(evs))
	verifyAll := func() {
		for i, s := range signed {
			if !cryptoutil.VerifyCached(pubs[i], msgs[i], s.Signature) {
				t.Fatalf("evidence %d: signature does not verify", i)
			}
		}
	}
	for {
		for i, key := range keys {
			sig, err := key.Sign(msgs[i])
			if err != nil {
				t.Fatal(err)
			}
			signed[i] = SignedEvidence{Evidence: evs[i], Signature: sig}
		}
		verifyAll()
		if testing.AllocsPerRun(1, verifyAll) == 0 {
			return signed
		}
	}
}

// TestSubmitEvidenceAllocations pins what one submitEvidence of a
// 16-device monitoring round allocates once the round's signatures and
// device keys have been seen: the check pass reads each device's key from
// the parsed-key table, and the verify pass finds each signature in the
// verified-signature table. At 1c22d60, which parsed every device key on
// every execution, the same execution made 561: 6 more per device. At
// c850a0a, which returned every record whole in a buffer grown item by
// item, it made 465. At 59e9311, which decoded the round's resource
// record once per item, it made 459. At 32b20b0, which decoded each
// item's device record, grant, counter and round progress through load's
// heap decoder and copied the device key and the grant's strings, it made
// 340. At e7eaaf7, which read and rewrote the round's progress record for
// every answering device, it made 181.
func TestSubmitEvidenceAllocations(t *testing.T) {
	const devices, want = 16, 149
	w, submit := roundSubmission(t, devices)
	if got := w.allocs(submit); got > want {
		t.Errorf("submitEvidence of %d devices: %.0f allocations, want at most %d", devices, got, want)
	}
}

// TestSubmitEvidenceMarginalAllocations pins what one more item of a
// round costs: 16 items on one resource may allocate at most 8 × 9 more
// than 8 items. The measured difference is 65, 8.1 per item; at 59e9311,
// which decoded the resource record for every item, it was 225, at
// 32b20b0, whose per-item reads went through load's heap decoder, 161, and
// at e7eaaf7, which rewrote the round's progress record per item, 81. An
// item that decodes its resource record again costs 8 more, and one read
// through load 1 more, which this catches where a bound on the whole round
// might not.
func TestSubmitEvidenceMarginalAllocations(t *testing.T) {
	const perItem = 9
	// Each round is measured as soon as it is built: its keys and
	// signatures are then all in the process's tables (roundSubmission).
	w8, submit8 := roundSubmission(t, 8)
	allocs8 := w8.allocs(submit8)
	w16, submit16 := roundSubmission(t, 16)
	allocs16 := w16.allocs(submit16)
	if got := allocs16 - allocs8; got > 8*perItem {
		t.Errorf("16 items: %.0f allocations, 8 items: %.0f; the 8 more items made %.0f, want at most %d",
			allocs16, allocs8, got, 8*perItem)
	}
}

// roundSubmission registers a resource with n retrieved grants, opens a
// monitoring round on it and returns the submitEvidence transaction of the
// round's n answers, checked to be accepted item by item. Its signatures
// and device keys are in the process's tables (keysApart, signedApart).
func roundSubmission(t testing.TB, n int) (*execWorld, *chain.Tx) {
	t.Helper()
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner)
	keys := keysApart(n)
	for _, device := range keys {
		w.withRetrievedGrant(owner, device)
	}
	w.must(owner, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: allocsIRI})
	evs := make([]Evidence, n)
	for i, device := range keys {
		evs[i] = Evidence{ResourceIRI: allocsIRI, Device: device.Address(), Round: 1, PolicyVersion: 1,
			StillStored: true, RetrievedAt: t0, GeneratedAt: t0.Add(time.Minute)}
	}
	signed := signedApart(t, keys, evs)
	submit := w.tx(cryptoutil.MustGenerateKey(), "submitEvidence", SubmitEvidenceArgs{Signed: signed})

	cp := w.ov.Checkpoint()
	r := w.rt.ExecuteTx(w.ov, submit, execBlock)
	w.ov.RevertTo(cp)
	outcomes, err := DecodeEvidenceOutcomes(r.Return)
	if !r.Succeeded() || err != nil || len(outcomes) != n {
		t.Fatalf("submitEvidence: %s, %v, %d outcomes", r.Err, err, len(outcomes))
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("evidence %d refused: %v", i, o.Err)
		}
	}
	return w, submit
}

// benchmarkExec runs tx once per iteration, the overlay reverted after
// each, reporting allocations: per-call counts of a contract method
// without the repo benchmark.
func benchmarkExec(b *testing.B, w *execWorld, tx *chain.Tx) {
	cp := w.ov.Checkpoint()
	b.ReportAllocs()
	for b.Loop() {
		w.exec(tx)
		w.ov.RevertTo(cp)
	}
}

// BenchmarkSubmitEvidenceRound executes one submitEvidence of a 16-device
// monitoring round, its signatures and device keys in the process's
// tables (roundSubmission), as each validator does once per round.
func BenchmarkSubmitEvidenceRound(b *testing.B) {
	w, submit := roundSubmission(b, 16)
	benchmarkExec(b, w, submit)
}

// BenchmarkRequestMonitoring16 executes one requestMonitoring of a
// resource with 16 retrieved grants.
func BenchmarkRequestMonitoring16(b *testing.B) {
	w, request := monitoringRequest(b, 16)
	benchmarkExec(b, w, request)
}
