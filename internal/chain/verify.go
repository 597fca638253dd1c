package chain

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// verify hashes every transaction and checks its signature on a pool
// of GOMAXPROCS goroutines, and returns one verdict per index (nil Err:
// valid). Each transaction is encoded once, and both its hash and the
// digest its signature covers come from that encoding
// (Tx.hashAndVerify). ECDSA verification is the dominant CPU cost of
// admission and block validation, and every verification is
// independent, so the pool turns O(n) sequential verifies into
// O(n/cores). It is the package's only verifier pool: submission reads
// the slice per transaction, ApplyBlock takes firstError of it.
//
// On one CPU, or for a single transaction, it degenerates to the
// sequential path. Each worker writes only the indexes it claimed, so
// the slice needs no synchronization beyond the WaitGroup, and the
// result is independent of worker scheduling.
func verify(txs []*Tx) []TxVerdict {
	if len(txs) == 0 {
		return nil
	}
	out := make([]TxVerdict, len(txs))
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	if workers <= 1 {
		for i, tx := range txs {
			out[i].Hash, out[i].Err = tx.hashAndVerify()
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(txs) {
					return
				}
				out[i].Hash, out[i].Err = txs[i].hashAndVerify()
			}
		}()
	}
	wg.Wait()
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
