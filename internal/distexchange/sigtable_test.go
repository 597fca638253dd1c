package distexchange

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

// TestEvidenceUnderReplacedDeviceKey is the byzantine row for evidence:
// submitEvidence checks the signature under the key the ledger holds for
// the device when the evidence executes. With the table warm from an
// accepted submission of the very same bytes, a ledger that now holds
// another key for the device refuses them — the remembered triple names
// the old key — and accepts what the new key signs.
//
// registerDevice cannot produce that ledger (a device address is the hash
// of its key), so the test rewrites the record in the state directly: the
// check must not lean on an invariant some other method keeps.
func TestEvidenceUnderReplacedDeviceKey(t *testing.T) {
	cryptoutil.ForgetVerified()
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()}))
	st := chain.NewOverlay(chain.NewState())
	exec := func(key *cryptoutil.KeyPair, method string, args any) *chain.Receipt {
		t.Helper()
		tx, err := chain.NewTx(key, 0, deAddr, method, args, DefaultGasLimit)
		if err != nil {
			t.Fatal(err)
		}
		return rt.ExecuteTx(st, tx, chain.BlockContext{Number: 1, Time: t0})
	}
	must := func(r *chain.Receipt) {
		t.Helper()
		if !r.Succeeded() {
			t.Fatal(r.Err)
		}
	}

	alice, device := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	pol := alicePolicy()
	iri := pol.ResourceIRI
	const webID = "https://alice.pod/profile#me"
	must(exec(alice, "registerPod", RegisterPodArgs{OwnerWebID: webID, Location: "https://alice.pod/"}))
	must(exec(alice, "registerResource", RegisterResourceArgs{
		ResourceIRI: iri, PodWebID: webID, Location: iri, Policy: pol,
	}))
	var m cryptoutil.Hash
	cert, err := ca.Issue(device, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	certRaw := cert.Encode()
	must(exec(device, "registerDevice", RegisterDeviceArgs{Certificate: certRaw}))
	must(exec(alice, "recordGrant", RecordGrantArgs{
		ResourceIRI: iri, Consumer: device.Address(), Device: device.Address(), Purpose: policy.PurposeWebAnalytics,
	}))
	must(exec(device, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: iri}))

	ev := Evidence{
		ResourceIRI: iri, Device: device.Address(), PolicyVersion: 1,
		StillStored: true, RetrievedAt: t0, GeneratedAt: t0,
	}
	sign := func(k *cryptoutil.KeyPair) SubmitEvidenceArgs {
		t.Helper()
		sig, err := k.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		return SubmitEvidenceArgs{Signed: []SignedEvidence{{Evidence: ev, Signature: sig}}}
	}
	original := sign(device)
	must(exec(device, "submitEvidence", original)) // first sighting
	must(exec(device, "submitEvidence", original)) // answered by the table

	// The ledger now holds another key for the device.
	replacement := cryptoutil.MustGenerateKey()
	var recKey string
	for _, k := range st.Keys("") {
		if strings.HasSuffix(k, "/"+string(devKey(nil, device.Address()))) {
			recKey = k
		}
	}
	raw, ok := st.Get([]byte(recKey))
	if !ok {
		t.Fatal("device record not found in state")
	}
	rec, err := DecodeDeviceRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	rec.DeviceKey = replacement.PublicBytes()
	st.Set(recKey, appendDeviceRecord(nil, &rec))

	for range 2 {
		if r := exec(device, "submitEvidence", original); r.Succeeded() || !strings.Contains(r.Err, "signature invalid") {
			t.Fatalf("evidence signed by the replaced key, warm table: status %v err %q, want a signature revert", r.Status, r.Err)
		}
	}
	must(exec(device, "submitEvidence", sign(replacement)))
	if r := exec(device, "submitEvidence", original); r.Succeeded() {
		t.Fatal("evidence signed by the replaced key accepted after the new key's evidence")
	}
}
