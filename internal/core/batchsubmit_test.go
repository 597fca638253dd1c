package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
)

// buildRegisterPodBatch signs n registerPod transactions from one sender
// with consecutive nonces starting at the sender's current nonce.
func buildRegisterPodBatch(t *testing.T, d *Deployment, key *cryptoutil.KeyPair, n int, tag string) []*chain.Tx {
	t.Helper()
	nonce := d.Nodes[0].NonceFor(key.Address())
	txs := make([]*chain.Tx, n)
	for i := range n {
		args := distexchange.RegisterPodArgs{
			OwnerWebID: fmt.Sprintf("https://%s%d.example/profile#me", tag, i),
			Location:   fmt.Sprintf("https://%s%d.example/", tag, i),
		}
		tx, err := chain.NewTx(key, nonce, d.DEAddr, "registerPod", args, distexchange.DefaultGasLimit)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
		nonce++
	}
	return txs
}

// TestDeploymentSubmitBatchSealOnSubmit checks that the batched ingestion
// path commits the whole batch, replicates it to every validator, and
// leaves receipts addressable by the returned hashes.
func TestDeploymentSubmitBatchSealOnSubmit(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	key := cryptoutil.MustGenerateKey()
	txs := buildRegisterPodBatch(t, d, key, 12, "batch")
	hashes, err := d.SubmitBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != len(txs) {
		t.Fatalf("hashes = %d, want %d", len(hashes), len(txs))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, h := range hashes {
		r, err := d.Nodes[0].WaitForReceipt(ctx, h)
		if err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		if !r.Succeeded() {
			t.Fatalf("tx %d reverted: %s", i, r.Err)
		}
	}
	// Every validator converged on the same head and drained its mempool.
	head := d.Nodes[0].Head().Hash()
	for _, n := range d.Nodes[1:] {
		if n.Head().Hash() != head {
			t.Fatalf("validator %s diverged", n.Address().Short())
		}
		if n.PendingTxs() != 0 {
			t.Fatalf("validator %s has %d pending txs", n.Address().Short(), n.PendingTxs())
		}
	}
	// The DE App observed all registrations.
	args := distexchange.GetPodArgs{OwnerWebID: "https://batch0.example/profile#me"}.AppendArgs(nil)
	raw, err := d.Nodes[0].Query(d.DEAddr, "getPod", args)
	if err != nil {
		t.Fatalf("getPod after batch: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty pod record")
	}
}

// TestStaleNonceIsNotAdmitted: Deployment.SubmitBatch refuses a new
// transaction on an already-committed nonce (it used to return its hash,
// for which no receipt would ever exist) and stays idempotent for a
// rebroadcast of the transaction that holds the nonce.
func TestStaleNonceIsNotAdmitted(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	key := cryptoutil.MustGenerateKey()
	committed := buildRegisterPodBatch(t, d, key, 1, "first")
	if _, err := d.SubmitBatch(committed); err != nil {
		t.Fatal(err)
	}
	height := d.Nodes[0].Height()

	replay := make([]*chain.Tx, 1)
	if replay[0], err = chain.NewTx(key, 0, d.DEAddr, "registerPod", distexchange.RegisterPodArgs{
		OwnerWebID: "https://second.example/profile#me", Location: "https://second.example/",
	}, distexchange.DefaultGasLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitBatch(replay); !errors.Is(err, chain.ErrTxStale) {
		t.Fatalf("a new tx on a committed nonce: err = %v, want ErrTxStale", err)
	}
	hashes, err := d.SubmitBatch(committed)
	if err != nil || hashes[0] != committed[0].Hash() {
		t.Fatalf("rebroadcast of the committed tx: %v, %v; want its hash and nil", hashes, err)
	}
	if got := d.Nodes[0].Height(); got != height {
		t.Fatalf("height %d -> %d: a refused or rebroadcast tx sealed a block", height, got)
	}
}

// TestBackendRetriesBackpressure: a burst larger than the mempool, sent
// through the push-in oracle of a SealOnSubmit deployment, is all
// admitted and committed. The backend seals a block and resubmits what
// the full pool pushed back; nothing reaches the caller as backpressure.
func TestBackendRetriesBackpressure(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 1, MempoolCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// One transaction per sender, so a pushed-back transaction never gaps
	// a later nonce of its own sender.
	const burst = 10
	txs := make([]*chain.Tx, burst)
	for i := range txs {
		txs[i] = buildRegisterPodBatch(t, d, cryptoutil.MustGenerateKey(), 1, fmt.Sprintf("burst%d-", i))[0]
	}
	for i, v := range d.PushInOracle().Submit(txs) {
		if v.Err != nil {
			t.Fatalf("tx %d: %v", i, v.Err)
		}
		r := d.Nodes[0].Receipt(v.Hash)
		if r == nil || !r.Succeeded() {
			t.Fatalf("tx %d not committed: %+v", i, r)
		}
	}
}
