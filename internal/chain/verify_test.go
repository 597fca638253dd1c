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
		tx, err := NewTx(key, uint64(i), to, "method", fmt.Appendf(nil, `{"i":%d}`, i), 1_000_000)
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

// TestVerifyTxSignaturesMalformed exercises the verifier pool's error
// paths — bit-flipped, truncated, and absent signatures at varying batch
// positions — across the sequential path, the bounded pool, and a pool
// wider than the batch. The bad index must carry the bad transaction's
// own failure and every other index nil, never a scheduling artifact.
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
				errs := verify(tc.txs)
				if len(errs) != len(tc.txs) {
					t.Fatalf("%d verdicts for %d txs", len(errs), len(tc.txs))
				}
				for i, v := range errs {
					if i != tc.bad && v.Err != nil {
						t.Fatalf("valid tx %d rejected: %v", i, v.Err)
					}
				}
				if tc.bad < 0 {
					return
				}
				_, want := tc.txs[tc.bad].hashAndVerify()
				if want == nil {
					t.Fatal("test bug: expected-bad tx verifies")
				}
				if err := firstError(errs); err == nil || err.Error() != want.Error() {
					t.Fatalf("reported %v, want the lowest-indexed failure %q", err, want)
				}
			})
		}
	}
}

// TestSubmitRejectsCorruptSignatureBytes covers admission with byte-level
// signature corruption (as opposed to tampered payloads): a node must
// refuse the corrupt transaction, alone or in a batch, and queue only the
// valid one beside it.
func TestSubmitRejectsCorruptSignatureBytes(t *testing.T) {
	node, _, _ := newTestNode(t)
	txs := mkSignedTxs(t, 1)
	bad := corruptSig(txs[0], func(sig []byte) []byte { sig[3] ^= 0xff; return sig })

	if _, err := submit1(node, bad); err == nil {
		t.Fatal("Submit accepted a corrupt signature")
	}
	if got := node.PendingTxs(); got != 0 {
		t.Fatalf("rejected submission left %d txs queued", got)
	}
	other := mkSignedTxs(t, 1) // another sender: no nonce cascade from the refusal
	out := node.Submit([]*Tx{bad, other[0]})
	if out[0].Err == nil || out[1].Err != nil {
		t.Fatalf("verdicts = %v, %v; want the corrupt tx refused and the valid one admitted", out[0].Err, out[1].Err)
	}
	if got := node.PendingTxs(); got != 1 {
		t.Fatalf("%d txs queued, want the 1 valid one", got)
	}
}
