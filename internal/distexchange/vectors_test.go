package distexchange

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

// refEvidenceSigningBytes is Evidence.SigningBytes as commit d71331e had
// it; the frozen vectors below were printed by it. Devices sign these
// bytes and submitEvidence verifies them on every validator.
func refEvidenceSigningBytes(e *Evidence) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "evidence|%s|%s|%d|%d|%t|%d|%d|%d|%d|",
		e.ResourceIRI, e.Device, e.Round, e.PolicyVersion, e.StillStored,
		e.DeletedAt.UnixNano(), e.RetrievedAt.UnixNano(), e.UseCount, e.GeneratedAt.UnixNano())
	for _, u := range e.Entries {
		fmt.Fprintf(&b, "%d,%s,%s,%t;", u.At.UnixNano(), u.Action, u.Purpose, u.Allowed)
	}
	return []byte(b.String())
}

func vecEvidence() []*Evidence {
	var dev cryptoutil.Address
	for i := range dev {
		dev[i] = 0xd0 + byte(i)
	}
	at := time.Unix(1_696_809_600, 5).UTC()
	return []*Evidence{
		{
			ResourceIRI: "https://alice.example/data/hr.ttl", Device: dev, Round: 3, PolicyVersion: 2, StillStored: true,
			RetrievedAt: at, UseCount: 2, GeneratedAt: at.Add(time.Hour),
			Entries: []UsageEntry{
				{At: at.Add(time.Minute), Action: policy.ActionUse, Purpose: policy.PurposeMedicalResearch, Allowed: true},
				{At: at.Add(2 * time.Minute), Action: policy.ActionShare, Purpose: "a|b,c;d", Allowed: false},
			},
		},
		// Every time.Time zero: UnixNano of the zero time is negative.
		{ResourceIRI: "urn:x|y", Round: math.MaxUint64, PolicyVersion: math.MaxUint64, UseCount: math.MaxUint64, Entries: []UsageEntry{{}}},
	}
}

func TestFrozenEvidenceEncoding(t *testing.T) {
	want := []string{
		"evidence|https://alice.example/data/hr.ttl|0xd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3|3|2|true|-6795364578871345152|1696809600000000005|2|1696813200000000005|1696809660000000005,use,medical-research,true;1696809720000000005,share,a|b,c;d,false;",
		"evidence|urn:x|y|0x0000000000000000000000000000000000000000|18446744073709551615|18446744073709551615|false|-6795364578871345152|-6795364578871345152|18446744073709551615|-6795364578871345152|-6795364578871345152,,,false;",
	}
	for i, e := range vecEvidence() {
		if got := string(e.SigningBytes()); got != want[i] {
			t.Errorf("evidence %d signing bytes:\n got %q\nwant %q", i, got, want[i])
		}
	}
}

func TestEvidenceEncodingMatchesFmtReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	text := func() string {
		alphabet := []string{"", "a", "|", ";", ",", "%", "ü", "\x00", "use", "https://"}
		var b strings.Builder
		for range r.Intn(6) {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	when := func() time.Time {
		if r.Intn(4) == 0 {
			return time.Time{}
		}
		return time.Unix(0, r.Int63()-r.Int63())
	}
	for i := range 1000 {
		e := &Evidence{
			ResourceIRI: text(), Round: r.Uint64() >> r.Intn(64), PolicyVersion: r.Uint64() >> r.Intn(64),
			StillStored: r.Intn(2) == 0, DeletedAt: when(), RetrievedAt: when(), UseCount: r.Uint64() >> r.Intn(64), GeneratedAt: when(),
		}
		r.Read(e.Device[:])
		for range r.Intn(5) {
			e.Entries = append(e.Entries, UsageEntry{
				At: when(), Action: policy.Action(text()), Purpose: policy.Purpose(text()), Allowed: r.Intn(2) == 0,
			})
		}
		if got, want := e.SigningBytes(), refEvidenceSigningBytes(e); string(got) != string(want) {
			t.Fatalf("case %d:\n got %q\nwant %q", i, got, want)
		}
	}
}
