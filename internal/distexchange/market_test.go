package distexchange

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

// stored returns the value under the DE App's key local.
func (w *execWorld) stored(local string) []byte {
	w.t.Helper()
	v, ok := w.ov.Get([]byte(w.deAddr.String() + "/" + local))
	if !ok {
		w.t.Fatalf("nothing stored under %s", local)
	}
	return v
}

// run executes tx, which must succeed, and returns its receipt.
func (w *execWorld) run(tx *chain.Tx) *chain.Receipt {
	w.t.Helper()
	r := w.rt.ExecuteTx(w.ov, tx, execBlock)
	if !r.Succeeded() {
		w.t.Fatalf("%s: %s", tx.Method, r.Err)
	}
	return r
}

// TestMarketRecordsMatchReference: each record a market method stores —
// built from views of its arguments, or spliced from the stored bytes — is
// the bytes that the reference encoder writes for the record decoded and
// updated (reference_test.go), and PolicyUpdated carries the new policy's
// record encoding. It includes the pod's default policy re-bound to a
// resource registered without one, and policies whose words are outside
// the vocabulary.
func TestMarketRecordsMatchReference(t *testing.T) {
	w := newExecWorld(t)
	owner, device := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	const pod, second = "https://alice.pod/", "https://alice.pod/other.csv"
	def := policy.New(pod, allocsWebID, t0)
	def.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic, "fieldwork"}
	def.MaxRetention = time.Hour
	check := func(what string, got []byte, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %x\nwant %x", what, got, want)
		}
	}

	w.must(owner, "registerPod", RegisterPodArgs{OwnerWebID: allocsWebID, Location: pod, DefaultPolicy: def})
	check("pod", w.stored("pod/"+allocsWebID), appendPodRecord(nil, &PodRecord{
		OwnerWebID: allocsWebID, Location: pod, Owner: owner.Address(), RegisteredAt: t0, DefaultPolicy: def,
	}))

	pol := policy.New(allocsIRI, allocsWebID, t0)
	pol.AllowedActions = []policy.Action{policy.ActionRead}
	w.must(owner, "registerResource", RegisterResourceArgs{ResourceIRI: allocsIRI, PodWebID: allocsWebID, Location: allocsIRI, Description: "d", Policy: pol})
	resource := ResourceRecord{ResourceIRI: allocsIRI, PodWebID: allocsWebID, Location: allocsIRI, Description: "d",
		Owner: owner.Address(), RegisteredAt: t0, Policy: pol}
	check("resource", w.stored("res/"+allocsIRI), appendResourceRecord(nil, &resource))

	w.must(owner, "registerResource", RegisterResourceArgs{ResourceIRI: second, PodWebID: allocsWebID, Location: second})
	rebound := def.Clone()
	rebound.ID, rebound.ResourceIRI = second+"#policy", second
	check("resource under the pod's default", w.stored("res/"+second), appendResourceRecord(nil, &ResourceRecord{
		ResourceIRI: second, PodWebID: allocsWebID, Location: second, Owner: owner.Address(), RegisteredAt: t0, Policy: rebound,
	}))

	next := pol.NextVersion(t0.Add(time.Minute))
	next.AllowedPurposes = []policy.Purpose{"fieldwork"}
	r := w.run(w.tx(owner, "updatePolicy", UpdatePolicyArgs{ResourceIRI: allocsIRI, Policy: next}))
	resource.Policy = next
	check("updated resource", w.stored("res/"+allocsIRI), appendResourceRecord(nil, &resource))
	check("PolicyUpdated", r.Events[0].Data, policy.AppendRecord(nil, next))

	w.registerDevice(device)
	grantKey := "grant/" + allocsIRI + "|" + device.Address().String()
	w.must(owner, "recordGrant", RecordGrantArgs{ResourceIRI: allocsIRI, Consumer: owner.Address(), Device: device.Address(), Purpose: "fieldwork"})
	grant := Grant{ResourceIRI: allocsIRI, Consumer: owner.Address(), Device: device.Address(), Purpose: "fieldwork", GrantedAt: t0}
	check("grant", w.stored(grantKey), appendGrant(nil, &grant))
	w.must(device, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: allocsIRI})
	grant.RetrievedAt = t0
	check("retrieved grant", w.stored(grantKey), appendGrant(nil, &grant))
	w.must(owner, "revokeGrant", RevokeGrantArgs{ResourceIRI: allocsIRI, Device: device.Address()})
	grant.Revoked = true
	check("revoked grant", w.stored(grantKey), appendGrant(nil, &grant))
}

// TestMarketArgViewsConcurrentExecutions: the market methods read their
// arguments as views of the transaction's bytes, which every validator's
// execution of the same *Tx reads at once. Executions of each method on
// copies of one state, all at once, give one receipt and one stored
// state, and leave the arguments as they were.
func TestMarketArgViewsConcurrentExecutions(t *testing.T) {
	w := newExecWorld(t)
	owner, device := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	pol := w.withResource(owner)
	w.registerDevice(device)
	txs := []*chain.Tx{
		w.tx(owner, "updatePolicy", UpdatePolicyArgs{ResourceIRI: allocsIRI, Policy: pol.NextVersion(t0.Add(time.Minute))}),
		w.tx(owner, "registerResource", RegisterResourceArgs{ResourceIRI: allocsIRI + "2", PodWebID: allocsWebID, Location: allocsIRI + "2",
			Policy: policy.New(allocsIRI+"2", allocsWebID, t0)}),
		w.tx(owner, "recordGrant", RecordGrantArgs{ResourceIRI: allocsIRI, Consumer: owner.Address(), Device: device.Address(), Purpose: "fieldwork"}),
	}
	for _, tx := range txs {
		args := bytes.Clone(tx.Args)
		receipts := make([]*chain.Receipt, 4)
		states := make([]map[string]string, len(receipts))
		var wg sync.WaitGroup
		for i := range receipts {
			st := chain.NewOverlay(chain.NewState())
			for _, k := range w.ov.Keys("") {
				v, _ := w.ov.Get([]byte(k))
				st.Set(k, v)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				receipts[i] = w.rt.ExecuteTx(st, tx, execBlock)
				states[i] = map[string]string{}
				for _, k := range st.Keys("") {
					v, _ := st.Get([]byte(k))
					states[i][k] = string(v)
				}
			}()
		}
		wg.Wait()
		if !receipts[0].Succeeded() {
			t.Fatalf("%s: %s", tx.Method, receipts[0].Err)
		}
		for i := range receipts[1:] {
			if !reflect.DeepEqual(receipts[i+1], receipts[0]) || !reflect.DeepEqual(states[i+1], states[0]) {
				t.Errorf("%s: execution %d differs from execution 0", tx.Method, i+1)
			}
		}
		if !bytes.Equal(tx.Args, args) {
			t.Errorf("executing %s changed its arguments", tx.Method)
		}
	}
}
