package chain

import "repro/internal/cryptoutil"

// verify hashes every transaction and checks its signature on the
// verifier pool (cryptoutil.VerifyAll), and returns one verdict per
// index (nil Err: valid). Each transaction is encoded once, and both its
// hash and the digest its signature covers come from that encoding
// (Tx.hashAndVerify). Submission reads the slice per transaction,
// ApplyBlock takes firstError of it. Each call writes only its own index,
// so the result is independent of worker scheduling.
func verify(txs []*Tx) []TxVerdict {
	if len(txs) == 0 {
		return nil
	}
	out := make([]TxVerdict, len(txs))
	cryptoutil.VerifyAll(len(txs), func(i int) {
		out[i].Hash, out[i].Err = txs[i].hashAndVerify()
	})
	return out
}

// firstError returns the lowest-indexed verdict's error, or nil.
func firstError(out []TxVerdict) error {
	for _, v := range out {
		if v.Err != nil {
			return v.Err
		}
	}
	return nil
}
