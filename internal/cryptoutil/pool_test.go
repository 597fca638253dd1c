package cryptoutil

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestVerifyAllRunsEachIndexOnce: every index in [0, n) is handed to
// verify exactly once, none outside it, and every call has returned when
// VerifyAll does — for an empty range, one index, one index fewer than
// the pool is wide, exactly its width and far more, on one CPU and on
// four. With one worker the calls run in index order.
func TestVerifyAllRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ns := []int{0, 1, procs - 1, procs, 1000}
		slices.Sort(ns)
		for _, n := range slices.Compact(ns) {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var order []int // appended only on the inline path
				var outside atomic.Int32
				VerifyAll(n, func(i int) {
					if i < 0 || i >= n {
						outside.Add(1)
						return
					}
					if calls[i].Add(1) == 1 && procs == 1 {
						order = append(order, i)
					}
				})
				if got := outside.Load(); got != 0 {
					t.Fatalf("%d calls outside [0, %d)", got, n)
				}
				for i := range calls {
					if got := calls[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
				if procs == 1 && !slices.IsSorted(order) {
					t.Fatalf("one worker ran indexes out of order: %v", order)
				}
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}
