package policy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/store"
)

// recordSentinels are Validate's errors, which a Record's must match.
var recordSentinels = []error{ErrNoID, ErrNoResource, ErrNoOwner, ErrZeroVersion, ErrBadRetention, ErrEmptyPurpose, ErrUnknownAction}

// checkRecord holds ReadRecord to DecodeRecord on data, read behind a
// prefix of one byte as a record is read behind its flag: it accepts
// exactly what DecodeRecord accepts, refuses with the same error, and for
// a policy it accepts, Bytes is data, the accessors read the decoded
// fields, Validate returns the same error and PermitsPurpose the same
// answer, and AppendRecord re-encodes the decoded policy as data.
func checkRecord(t *testing.T, data []byte) {
	t.Helper()
	behind := append([]byte{0xaa}, data...)
	var p Policy
	full := store.NewDec(behind)
	full.Byte()
	DecodeRecord(full, &p)
	wantErr := full.Finish()

	in := store.NewDec(behind)
	in.Byte()
	r := ReadRecord(in)
	if err := in.Finish(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("record\n%x\nread in place: %v\ndecoded: %v", data, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if again := AppendRecord(nil, &p); !bytes.Equal(again, data) {
		t.Fatalf("record\n%x\nre-encodes as\n%x", data, again)
	}
	if !bytes.Equal(r.Bytes(), data) || string(r.ResourceIRI()) != p.ResourceIRI || r.Version() != p.Version {
		t.Fatalf("record\n%x\nreads bytes %x, resource %q, version %d; decoded %q, %d", data, r.Bytes(), r.ResourceIRI(), r.Version(), p.ResourceIRI, p.Version)
	}
	got, want := r.Validate(), p.Validate()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("record\n%x\nValidate: in place %v, decoded %v", data, got, want)
	}
	for _, sentinel := range recordSentinels {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			t.Fatalf("record\n%x\nValidate: in place %v, decoded %v: they differ on %v", data, got, want, sentinel)
		}
	}
	purposes := append([]Purpose{"", "unknown"}, purposeWords...)
	purposes = append(purposes, p.AllowedPurposes...)
	for _, pu := range purposes {
		if r.PermitsPurpose(pu) != p.PermitsPurpose(pu) {
			t.Fatalf("record\n%x\nPermitsPurpose(%q): in place %v, decoded %v", data, pu, r.PermitsPurpose(pu), p.PermitsPurpose(pu))
		}
	}
}

// recordSeeds are encodings of valid policies, of each kind of invalid one
// and of drawn ones.
func recordSeeds() [][]byte {
	var seeds [][]byte
	for _, p := range vecPolicies() {
		seeds = append(seeds, AppendRecord(nil, p))
	}
	for _, mutate := range []func(*Policy){
		func(p *Policy) {},
		func(p *Policy) { p.ID = "" },
		func(p *Policy) { p.ResourceIRI = "" },
		func(p *Policy) { p.OwnerWebID = "" },
		func(p *Policy) { p.Version = 0 },
		func(p *Policy) { p.MaxRetention = -time.Hour },
		func(p *Policy) { p.AllowedPurposes = []Purpose{PurposeAcademic, ""} },
		func(p *Policy) { p.AllowedActions = []Action{ActionRead, "fly"} },
		func(p *Policy) { p.AllowedPurposes = []Purpose{PurposeAny} },
	} {
		p := fullPolicy()
		mutate(p)
		seeds = append(seeds, AppendRecord(nil, p))
	}
	r := rand.New(rand.NewSource(23))
	for range 20 {
		seeds = append(seeds, AppendRecord(nil, randPolicy(r)))
	}
	return seeds
}

// TestRecordMatchesPolicy runs checkRecord over the seeds, whole, cut short,
// with a byte more and with one byte changed.
func TestRecordMatchesPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, seed := range recordSeeds() {
		changed := bytes.Clone(seed)
		changed[rng.Intn(len(changed))] ^= byte(1 + rng.Intn(255))
		for _, data := range [][]byte{seed, seed[:rng.Intn(len(seed))], append(bytes.Clone(seed), 0), changed} {
			checkRecord(t, data)
		}
	}
}

// FuzzRecordRead holds the in-place reader to the decoder on arbitrary
// bytes (checkRecord).
//
// CI smoke-runs this with -fuzz=FuzzRecordRead -fuzztime=30s.
func FuzzRecordRead(f *testing.F) {
	for _, seed := range recordSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{'{'})
	f.Fuzz(func(t *testing.T, data []byte) { checkRecord(t, data) })
}

// TestRecordAllocatesNothing: reading a policy in place, validating it and
// asking it whether it permits a purpose allocate nothing.
func TestRecordAllocatesNothing(t *testing.T) {
	enc := AppendRecord(nil, fullPolicy())
	if got := testing.AllocsPerRun(100, func() {
		d := store.NewDec(enc)
		r := ReadRecord(d)
		if d.Finish() != nil || r.Validate() != nil || !r.PermitsPurpose(PurposeAcademic) || r.PermitsPurpose(PurposeMarketing) {
			t.Fatal("the policy reads otherwise")
		}
	}); got != 0 {
		t.Errorf("%.0f allocations, want 0", got)
	}
}
