package cryptoutil

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyAll runs verify(i) once for every i in [0, n) on a pool of
// min(GOMAXPROCS, n) goroutines and returns when every call has. It is
// the repository's one signature-verification pool: chain's admission
// and block validation check transaction signatures on it, and the DE
// App's submitEvidence checks a list's device signatures on it. ECDSA
// verification dominates both, and every check is independent, so the
// pool turns n sequential verifications into about n/cores.
//
// With one worker — one CPU, or n == 1 — the calls run inline, in index
// order, on the caller's goroutine. Otherwise the caller and workers−1
// goroutines claim indexes from one counter, so the order is unspecified;
// verify must write only what index i owns, which makes the result
// independent of the schedule and needs no synchronization beyond the
// return. The return waits for the indexes, not for the goroutines: a
// helper that is scheduled only after the caller has run every index
// itself finds nothing left to claim, and nobody waits for it. A new
// goroutine's first run can come later than a whole batch of table hits
// takes.
func VerifyAll(n int, verify func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			verify(i)
		}
		return
	}
	var next atomic.Int64
	var done sync.WaitGroup // one count per index
	done.Add(n)
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			verify(i)
			done.Done()
		}
	}
	for range workers - 1 {
		go claim()
	}
	claim()
	done.Wait()
}
