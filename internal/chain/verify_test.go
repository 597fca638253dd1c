package chain

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cryptoutil"
)

// mkSignedTxs builds n valid transactions from one sender.
func mkSignedTxs(t *testing.T, n int) []*Tx {
	t.Helper()
	key := cryptoutil.MustGenerateKey()
	to := testContractAddr()
	txs := make([]*Tx, n)
	for i := range n {
		tx, err := NewTx(key, uint64(i), to, "method", map[string]int{"i": i}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	return txs
}

// corruptSig returns a copy of the tx with a mutated signature.
func corruptSig(tx *Tx, mutate func(sig []byte) []byte) *Tx {
	bad := *tx
	bad.Signature = mutate(append([]byte(nil), tx.Signature...))
	return &bad
}

// withVerifyPool sizes the verification pool for the rest of the test:
// the pool is GOMAXPROCS wide, so that is what varies it (as `go test
// -cpu` does); 0 leaves the host's value.
func withVerifyPool(t *testing.T, workers int) {
	t.Helper()
	if workers > 0 {
		prev := runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestVerifyTxSignaturesMalformed exercises the verifier's error paths —
// bit-flipped, truncated, and absent signatures at varying batch
// positions — across the sequential path, the bounded pool, and a pool
// wider than the batch. The reported error must always be the bad
// transaction's own failure (lowest-indexed), never a scheduling
// artifact.
func TestVerifyTxSignaturesMalformed(t *testing.T) {
	base := mkSignedTxs(t, 12)
	flip := func(sig []byte) []byte { sig[len(sig)/2] ^= 0xff; return sig }
	trunc := func(sig []byte) []byte { return sig[:4] }
	drop := func([]byte) []byte { return nil }

	withBad := func(i int, mutate func([]byte) []byte) []*Tx {
		out := append([]*Tx(nil), base...)
		out[i] = corruptSig(base[i], mutate)
		return out
	}

	cases := []struct {
		name string
		txs  []*Tx
		bad  int // index whose error must be reported; -1 = all valid
	}{
		{"all-valid", base, -1},
		{"empty", nil, -1},
		{"single-valid", base[:1], -1},
		{"single-flipped", withBad(0, flip)[:1], 0},
		{"first-flipped", withBad(0, flip), 0},
		{"middle-truncated", withBad(6, trunc), 6},
		{"last-unsigned", withBad(11, drop), 11},
	}

	for _, tc := range cases {
		for _, workers := range []int{0, 1, 2, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				withVerifyPool(t, workers)
				err := VerifyTxSignatures(tc.txs)
				if tc.bad < 0 {
					if err != nil {
						t.Fatalf("valid batch rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatal("malformed signature accepted")
				}
				want := tc.txs[tc.bad].VerifySignature()
				if want == nil {
					t.Fatal("test bug: expected-bad tx verifies")
				}
				if err.Error() != want.Error() {
					t.Fatalf("reported %q, want the lowest-indexed failure %q", err, want)
				}
			})
		}
	}
}

// TestSubmitRejectsCorruptSignatureBytes covers the admission paths with
// byte-level signature corruption (as opposed to tampered payloads): a
// node must refuse via both SubmitTx and SubmitBatch and queue nothing.
func TestSubmitRejectsCorruptSignatureBytes(t *testing.T) {
	node, _, _ := newTestNode(t)
	txs := mkSignedTxs(t, 2)
	bad := corruptSig(txs[0], func(sig []byte) []byte { sig[3] ^= 0xff; return sig })

	if _, err := node.SubmitTx(bad); err == nil {
		t.Fatal("SubmitTx accepted a corrupt signature")
	}
	if _, err := node.SubmitBatch([]*Tx{txs[1], bad}); err == nil {
		t.Fatal("SubmitBatch accepted a corrupt signature")
	}
	if got := node.PendingTxs(); got != 0 {
		t.Fatalf("rejected submissions left %d txs queued", got)
	}
}
