package distexchange

import (
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

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
		// Every time.Time zero.
		{ResourceIRI: "urn:x|y", Round: math.MaxUint64, PolicyVersion: math.MaxUint64, UseCount: math.MaxUint64, Entries: []UsageEntry{{}}},
	}
}

// TestFrozenEvidenceEncoding pins SigningBytes, what a device signs and
// every validator verifies: tagEvidence and the evidence as an
// EvidenceRecord holds it.
func TestFrozenEvidenceEncoding(t *testing.T) {
	want := []string{
		"272168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30302010f01000000000000000000000000ffff0f010000000edcb5398000000005ffff02020f010000000edcb539bc00000005ffff03757365106d65646963616c2d7265736561726368010f010000000edcb539f800000005ffff05736861726507617c622c633b64000f010000000edcb5479000000005ffff",
		"270775726e3a787c790000000000000000000000000000000000000000ffffffffffffffffff01ffffffffffffffffff01000f01000000000000000000000000ffff0f01000000000000000000000000ffffffffffffffffffffff01010f01000000000000000000000000ffff0000000f01000000000000000000000000ffff",
	}
	for i, e := range vecEvidence() {
		if got := hex.EncodeToString(e.SigningBytes()); got != want[i] {
			t.Errorf("evidence %d signing bytes:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// vectors holds, per record type, a value with every field set and one that
// is all zero but for the widest integers.
type vectors struct {
	policies   []policy.Policy
	pods       []PodRecord
	resources  []ResourceRecord
	devices    []DeviceRecord
	grants     []Grant
	rounds     []MonitoringRound
	evidence   []EvidenceRecord
	violations []Violation
	outcomes   [][]EvidenceOutcome
}

func recordVectors() vectors {
	var owner, dev cryptoutil.Address
	for i := range owner {
		owner[i] = 0xa0 + byte(i)
		dev[i] = 0xd0 + byte(i)
	}
	var measurement cryptoutil.Hash
	copy(measurement[:], "trusted-app-measurement-00000000")
	at := time.Unix(1_696_809_600, 5).UTC()
	const iri = "https://alice.example/data/hr.ttl"
	pol := policy.Policy{
		ID: iri + "#policy", ResourceIRI: iri, OwnerWebID: "https://alice.example/profile#me", Version: 3, IssuedAt: at,
		AllowedPurposes: []policy.Purpose{policy.PurposeMedicalResearch, policy.PurposeAcademic},
		AllowedActions:  []policy.Action{policy.ActionUse, policy.ActionRead},
		MaxRetention:    72 * time.Hour, ExpiresAt: at.Add(24 * time.Hour), MaxUses: 5, ProhibitSharing: true,
	}
	evidence := vecEvidence()
	records := []EvidenceRecord{
		{Seq: 7, Evidence: *evidence[0], Verified: true, Stored: at.Add(2 * time.Hour), Round: 3, Findings: []ViolationKind{ViolationRetention, ViolationMaxUses}},
		{Seq: math.MaxUint64, Evidence: *evidence[1], Round: math.MaxUint64},
	}
	return vectors{
		policies: []policy.Policy{pol, {Version: math.MaxUint64, MaxRetention: math.MinInt64, MaxUses: math.MaxUint64}},
		pods: []PodRecord{
			{OwnerWebID: pol.OwnerWebID, Location: "https://alice.example/", Owner: owner, DefaultPolicy: &pol, RegisteredAt: at},
			{},
		},
		resources: []ResourceRecord{
			{ResourceIRI: iri, PodWebID: pol.OwnerWebID, Location: iri, Description: "heart rate, 2023", Owner: owner, Policy: &pol, RegisteredAt: at, Withdrawn: true},
			{},
		},
		devices: []DeviceRecord{
			{Device: dev, DeviceKey: []byte{4, 0xde, 0xad, 0xbe, 0xef}, Measurement: measurement, RegisteredAt: at},
			{},
		},
		grants: []Grant{
			{ResourceIRI: iri, Consumer: owner, Device: dev, Purpose: policy.PurposeAcademic, GrantedAt: at, RetrievedAt: at.Add(time.Minute), Revoked: true},
			{},
		},
		rounds: []MonitoringRound{
			{Round: 3, ResourceIRI: iri, RequestedAt: at, Targets: []cryptoutil.Address{dev, owner}, Responded: []cryptoutil.Address{dev}, Closed: true},
			{Round: math.MaxUint64},
		},
		evidence: records,
		violations: []Violation{
			{Seq: 2, ResourceIRI: iri, Device: dev, Kind: ViolationUnresponsive, Detail: "no evidence for round 3", DetectedAt: at, Round: 3},
			{Seq: math.MaxUint64, Round: math.MaxUint64},
		},
		outcomes: [][]EvidenceOutcome{
			{
				{Seq: records[0].Seq},
				{Err: &RevertError{Method: methodSubmitEvidence, Reason: "contract: reverted: submitEvidence: evidence signature invalid"}},
				{Seq: records[1].Seq},
			},
			nil,
		},
	}
}

// encodings lists every vector's encoding, in the order of
// TestFrozenRecordEncodings.
func (v vectors) encodings() [][]byte {
	var out [][]byte
	for i := range v.policies {
		out = append(out, policy.AppendRecord(nil, &v.policies[i]))
	}
	for i := range v.pods {
		out = append(out, appendPodRecord(nil, &v.pods[i]))
	}
	for i := range v.resources {
		out = append(out, appendResourceRecord(nil, &v.resources[i]))
	}
	for i := range v.devices {
		out = append(out, appendDeviceRecord(nil, &v.devices[i]))
	}
	for i := range v.grants {
		out = append(out, appendGrant(nil, &v.grants[i]))
	}
	for i := range v.rounds {
		out = append(out, appendMonitoringRound(nil, &v.rounds[i]))
	}
	for i := range v.evidence {
		out = append(out, appendEvidenceRecord(nil, &v.evidence[i]))
	}
	for i := range v.violations {
		out = append(out, appendViolation(nil, &v.violations[i]))
	}
	for i := range v.outcomes {
		out = append(out, appendOutcomes(nil, &v.outcomes[i]))
	}
	return out
}

// TestFrozenRecordEncodings pins the bytes of every DE App record: they are
// the chain's state, so its roots, its gas and what a data directory holds.
// A change here is a state-format change. (The last two are what
// submitEvidence returns: no state holds them, but receipts do, so a
// header's receipt root and a data directory.)
func TestFrozenRecordEncodings(t *testing.T) {
	want := []string{
		"202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"20000000ffffffffffffffffff010f01000000000000000000000000ffff0000808080808080808080010f01000000000000000000000000ffffffffffffffffffffff010000",
		"212068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d651668747470733a2f2f616c6963652e6578616d706c652fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b30f010000000edcb5398000000005ffff01202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"21000000000000000000000000000000000000000000000f01000000000000000000000000ffff00",
		"22012168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d652168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c10686561727420726174652c2032303233a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b30f010000000edcb5398000000005ffff01202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"22000000000000000000000000000000000000000000000000000f01000000000000000000000000ffff00",
		"23d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30504deadbeef747275737465642d6170702d6d6561737572656d656e742d30303030303030300f010000000edcb5398000000005ffff",
		"2300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000f01000000000000000000000000ffff",
		"242168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746ca0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30861636164656d69630f010000000edcb5398000000005ffff0f010000000edcb539bc00000005ffff01",
		"240000000000000000000000000000000000000000000000000000000000000000000000000000000000000f01000000000000000000000000ffff0f01000000000000000000000000ffff00",
		"25032168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c0f010000000edcb5398000000005ffff0102d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b301d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3",
		"25ffffffffffffffffff01000f01000000000000000000000000ffff000000",
		"27072168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30302010f01000000000000000000000000ffff0f010000000edcb5398000000005ffff02020f010000000edcb539bc00000005ffff03757365106d65646963616c2d7265736561726368010f010000000edcb539f800000005ffff05736861726507617c622c633b64000f010000000edcb5479000000005ffff010f010000000edcb555a000000005ffff030209726574656e74696f6e086d61782d75736573",
		"27ffffffffffffffffff010775726e3a787c790000000000000000000000000000000000000000ffffffffffffffffff01ffffffffffffffffff01000f01000000000000000000000000ffff0f01000000000000000000000000ffffffffffffffffffffff01010f01000000000000000000000000ffff0000000f01000000000000000000000000ffff000f01000000000000000000000000ffffffffffffffffffffff0100",
		"28022168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30c756e726573706f6e73697665176e6f2065766964656e636520666f7220726f756e6420330f010000000edcb5398000000005ffff03",
		"28ffffffffffffffffff0100000000000000000000000000000000000000000000000f01000000000000000000000000ffffffffffffffffffffff01",
		"29030107003e636f6e74726163743a2072657665727465643a207375626d697445766964656e63653a2065766964656e6365207369676e617475726520696e76616c696401ffffffffffffffffff01",
		"2900",
	}
	got := recordVectors().encodings()
	if len(got) != len(want) {
		t.Fatalf("%d encodings, %d frozen", len(got), len(want))
	}
	for i, enc := range got {
		if hex.EncodeToString(enc) != want[i] {
			t.Errorf("vector %d:\n got %x\nwant %s", i, enc, want[i])
		}
	}
	// Monitoring reads grants and device records in place: each frozen one
	// goes through both readers, which must agree with the full decoders.
	v := recordVectors()
	for i := range v.grants {
		grant, device := appendGrant(nil, &v.grants[i]), appendDeviceRecord(nil, &v.devices[i])
		for _, enc := range [][]byte{grant, device} {
			checkGrantHead(t, enc)
			checkDeviceKey(t, enc)
		}
	}
}
