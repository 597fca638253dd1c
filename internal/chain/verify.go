package chain

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// verify checks the signature of every transaction on a pool of
// GOMAXPROCS goroutines and returns one error per index (nil: valid).
// ECDSA verification is the dominant CPU cost of admission and block
// validation, and every verification is independent, so the pool turns
// O(n) sequential verifies into O(n/cores). It is the package's only
// verifier pool: submission reads the slice per transaction, ApplyBlock
// takes firstError of it.
//
// On one CPU, or for a single transaction, it degenerates to the
// sequential path. Each worker writes only the indexes it claimed, so
// the slice needs no synchronization beyond the WaitGroup, and the
// result is independent of worker scheduling.
func verify(txs []*Tx) []error {
	if len(txs) == 0 {
		return nil
	}
	errs := make([]error, len(txs))
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	if workers <= 1 {
		for i, tx := range txs {
			errs[i] = tx.VerifySignature()
		}
		return errs
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
				errs[i] = txs[i].VerifySignature()
			}
		}()
	}
	wg.Wait()
	return errs
}

// firstError returns the lowest-indexed non-nil error, or nil.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
