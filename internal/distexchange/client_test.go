package distexchange

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// quotaBackend is a scripted Backend: each Submit admits at most quota
// transactions — a prefix; the first one over gets ErrQuotaExceeded and
// the rest fail their nonce check, as a node answers — and an admitted
// transaction is committed at once.
type quotaBackend struct {
	quota     int
	committed uint64
	sizes     []int    // transactions per Submit call
	nonces    []uint64 // first nonce of each Submit call
}

func (b *quotaBackend) Submit(txs []*chain.Tx) []chain.TxVerdict {
	b.sizes = append(b.sizes, len(txs))
	b.nonces = append(b.nonces, txs[0].Nonce)
	out := make([]chain.TxVerdict, len(txs))
	for i, tx := range txs {
		out[i].Hash = tx.Hash()
		switch {
		case i < b.quota:
			b.committed++
		case i == b.quota:
			out[i].Err = chain.ErrQuotaExceeded
		default:
			out[i].Err = chain.ErrBadNonce
		}
	}
	return out
}

func (b *quotaBackend) WaitForReceipt(_ context.Context, h cryptoutil.Hash) (*chain.Receipt, error) {
	return &chain.Receipt{TxHash: h, Status: chain.StatusOK}, nil
}

func (b *quotaBackend) Query(cryptoutil.Address, string, []byte) ([]byte, error) {
	return nil, errors.New("not scripted")
}

func (b *quotaBackend) NonceFor(cryptoutil.Address) uint64 { return b.committed }

// TestSubmitEvidenceBatchResumesBehindAdmittedPrefix: when the backend
// admits only a prefix of a round, the client awaits it and submits the
// remainder again under fresh nonces — every submission carries each
// outstanding evidence exactly once — and a submission that admits
// nothing ends the batch with the backend's verdicts.
func TestSubmitEvidenceBatchResumesBehindAdmittedPrefix(t *testing.T) {
	round := make([]SignedEvidence, 16)
	for i := range round {
		round[i].Evidence.Round = uint64(i)
	}
	t.Run("quota 4", func(t *testing.T) {
		b := &quotaBackend{quota: 4}
		c := NewClient(b, cryptoutil.MustGenerateKey(), cryptoutil.Address{})
		for i, out := range c.SubmitEvidenceBatch(context.Background(), round) {
			if out.Err != nil || out.Receipt == nil {
				t.Fatalf("evidence %d: receipt %v, err %v", i, out.Receipt, out.Err)
			}
		}
		if want := []int{16, 12, 8, 4}; !slices.Equal(b.sizes, want) {
			t.Fatalf("submission sizes %v, want %v", b.sizes, want)
		}
		if want := []uint64{0, 4, 8, 12}; !slices.Equal(b.nonces, want) {
			t.Fatalf("submissions start at nonces %v, want %v", b.nonces, want)
		}
	})
	t.Run("quota 0", func(t *testing.T) {
		b := &quotaBackend{}
		c := NewClient(b, cryptoutil.MustGenerateKey(), cryptoutil.Address{})
		outs := c.SubmitEvidenceBatch(context.Background(), round)
		if !errors.Is(outs[0].Err, chain.ErrQuotaExceeded) || !errors.Is(outs[15].Err, chain.ErrBadNonce) {
			t.Fatalf("outcomes %v … %v, want the backend's quota and nonce verdicts", outs[0].Err, outs[15].Err)
		}
		if len(b.sizes) != 1 {
			t.Fatalf("%d submissions, want 1: nothing was admitted, so nothing will free room", len(b.sizes))
		}
	})
}
