package chain

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyTxSignatures checks the signature of every transaction using a
// pool of GOMAXPROCS goroutines. ECDSA verification is the dominant
// CPU cost of block validation (it dwarfs the state replay for typical
// transactions), and every verification is independent, so the pool turns
// block admission from O(n) sequential verifies into O(n/cores).
//
// On one CPU, or for a single transaction, it degenerates to the
// sequential path. The returned error is deterministic: the failure of
// the lowest-indexed bad transaction, regardless of worker scheduling.
// Remaining work is abandoned as soon as any worker observes a failure.
func VerifyTxSignatures(txs []*Tx) error {
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	if workers <= 1 {
		for _, tx := range txs {
			if err := tx.VerifySignature(); err != nil {
				return err
			}
		}
		return nil
	}

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(txs) || failed.Load() {
					return
				}
				if err := txs[i].VerifySignature(); err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		// Exceptional path: re-scan sequentially so the reported error is
		// always the lowest-indexed failure, independent of scheduling.
		for _, tx := range txs {
			if err := tx.VerifySignature(); err != nil {
				return err
			}
		}
	}
	return nil
}
