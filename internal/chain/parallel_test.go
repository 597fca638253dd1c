package chain

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// parallelWorkerCounts are the scheduler widths the differential tests
// sweep; each must be bit-identical to the serial path.
var parallelWorkerCounts = []int{2, 4, 8}

// randomParallelBlockTxs builds one large block mixing conflict-free
// writes, read-modify-write collisions on a small shared key space,
// reverts, and gas burns — big enough to clear minParallelTxs and
// adversarial enough to exercise every scheduler phase.
func randomParallelBlockTxs(t testing.TB, rng *rand.Rand, keys []*cryptoutil.KeyPair, nonces []uint64) []*Tx {
	t.Helper()
	var txs []*Tx
	for i := range 32 + rng.Intn(32) {
		s := rng.Intn(len(keys))
		var tx *Tx
		var err error
		switch rng.Intn(10) {
		case 0:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "fail", []byte(`{}`), 100_000)
		case 1:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "burn", burnArgs{Amount: uint64(rng.Intn(50_000))}, 100_000)
		case 2, 3, 4:
			// Shared counters: read-modify-write over 4 keys, so conflicts
			// are common but not total.
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "incr", setArgs{
				Key: fmt.Sprintf("ctr%d", rng.Intn(4)),
			}, 200_000)
		default:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "set", setArgs{
				Key:   fmt.Sprintf("k%03d", rng.Intn(64)),
				Value: fmt.Sprintf("v%d-%d", i, rng.Int63()),
			}, 200_000)
		}
		if err != nil {
			t.Fatal(err)
		}
		nonces[s]++
		txs = append(txs, tx)
	}
	return txs
}

// requireSameExecution compares a parallel replay against the serial
// reference: receipts (digests cover status, gas, error, and the full
// ordered event list), state roots, and the drained block diffs must be
// bit-identical. It returns the serial diff so callers can advance the
// canonical state.
func requireSameExecution(t *testing.T, label string, serial, par []*Receipt, serialOv, parOv *Overlay) []Delta {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: receipt counts differ: serial %d, parallel %d", label, len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Digest() != par[i].Digest() {
			t.Fatalf("%s: receipt %d differs:\nserial   %+v\nparallel %+v", label, i, serial[i], par[i])
		}
	}
	if sr, pr := serialOv.Root(), parOv.Root(); sr != pr {
		t.Fatalf("%s: serial root %s != parallel root %s", label, sr.Short(), pr.Short())
	}
	sd, pd := serialOv.TakeDeltas(), parOv.TakeDeltas()
	if len(sd) != len(pd) {
		t.Fatalf("%s: serial diff has %d entries, parallel %d:\n%+v\n%+v", label, len(sd), len(pd), sd, pd)
	}
	for i := range sd {
		if sd[i].K != pd[i].K || sd[i].Del != pd[i].Del || string(sd[i].V) != string(pd[i].V) {
			t.Fatalf("%s: diff entry %d differs: %+v vs %+v", label, i, sd[i], pd[i])
		}
	}
	return sd
}

// TestDifferentialParallelVsSerialRandom: across 5 seeds and every
// worker count, the parallel scheduler must produce bit-identical
// receipts, event order, state roots, and block diffs to the serial
// path on random mixed workloads, block after block as state evolves.
func TestDifferentialParallelVsSerialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, workers := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := []*cryptoutil.KeyPair{
					cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(),
				}
				nonces := make([]uint64, len(keys))
				ex := testExecutor{}
				st := NewState()
				for block := range 20 {
					txs := randomParallelBlockTxs(t, rng, keys, nonces)
					bctx := BlockContext{Number: uint64(block + 1), Time: chainEpoch.Add(time.Duration(block) * time.Second)}

					serialOv := NewOverlay(st)
					serial := replayTxs(ex, serialOv, txs, txHashes(nil, txs), bctx)
					parOv := NewOverlay(st)
					par := replayTxsParallelObs(ex, parOv, txs, txHashes(nil, txs), bctx, workers, noopMetrics)

					deltas := requireSameExecution(t, fmt.Sprintf("block %d", block), serial, par, serialOv, parOv)
					st.applyDeltas(deltas)
				}
			})
		}
	}
}

// TestDifferentialParallelAllConflicts: every transaction increments the
// same counter, so every optimistic result after the first is wrong and
// the scheduler must fall back to (deterministic) serial re-execution of
// nearly the whole block — and still match the serial path exactly,
// ending at the true count.
func TestDifferentialParallelAllConflicts(t *testing.T) {
	const txCount = 64
	key := cryptoutil.MustGenerateKey()
	ex := testExecutor{}
	for _, workers := range parallelWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			txs := make([]*Tx, txCount)
			for i := range txs {
				tx, err := NewTx(key, uint64(i), testContractAddr(), "incr", setArgs{Key: "hot"}, 200_000)
				if err != nil {
					t.Fatal(err)
				}
				txs[i] = tx
			}
			st := NewState()
			bctx := BlockContext{Number: 1, Time: chainEpoch}

			serialOv := NewOverlay(st)
			serial := replayTxs(ex, serialOv, txs, txHashes(nil, txs), bctx)
			parOv := NewOverlay(st)
			par := replayTxsParallelObs(ex, parOv, txs, txHashes(nil, txs), bctx, workers, noopMetrics)
			requireSameExecution(t, "hot-counter block", serial, par, serialOv, parOv)

			// The last receipt's event carries the final count: proof no
			// increment was lost to a stale optimistic result.
			ev := par[txCount-1].Events
			if len(ev) != 1 || string(ev[0].Data) != strconv.Itoa(txCount) {
				t.Fatalf("final counter event = %+v, want %d", ev, txCount)
			}
		})
	}
}

// rwExecutor exercises the conflict-detection corners the standard test
// executor cannot reach: deletions (whose no-op decision is a read) and
// prefix listings (whose result set any overlapping write invalidates).
//
//	"put"   {key, value}: blind write.
//	"del"   {key}       : delete; writes "deleted:<yes|no>" event.
//	"count" {key}       : lists Keys("<contract>/item/") and stores the
//	                      count under the given key.
//	"claim" {key, value}: writes the item, then reverts if it was taken.
type rwExecutor struct{}

func (rwExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	var args setArgs
	if err := json.Unmarshal(tx.Args, &args); err != nil {
		return &Receipt{Status: StatusReverted, Err: err.Error()}
	}
	r := &Receipt{Status: StatusOK, GasUsed: GasTxBase}
	prefix := tx.Contract.String() + "/item/"
	switch tx.Method {
	case "put":
		st.Set(prefix+args.Key, []byte(args.Value))
	case "del":
		k := prefix + args.Key
		_, existed := st.Get([]byte(k))
		st.Delete(k)
		verdict := "no"
		if existed {
			verdict = "yes"
		}
		r.Events = append(r.Events, Event{Contract: tx.Contract, Topic: "Del", Key: args.Key, Data: []byte("deleted:" + verdict)})
	case "claim":
		// Write first, check second: a revert has a write to roll back,
		// and the read it was decided on must outlive the rollback.
		k := prefix + args.Key
		_, taken := st.Get([]byte(k))
		st.Set(k, []byte(args.Value))
		if taken {
			return &Receipt{Status: StatusReverted, GasUsed: GasTxBase, Err: "taken"}
		}
	case "count":
		n := len(st.Keys(prefix))
		st.Set(tx.Contract.String()+"/"+args.Key, []byte(strconv.Itoa(n)))
		r.Events = append(r.Events, Event{Contract: tx.Contract, Topic: "Count", Key: args.Key, Data: []byte(strconv.Itoa(n))})
	default:
		return &Receipt{Status: StatusReverted, Err: "unknown method"}
	}
	return r
}

func (rwExecutor) Query(StateReader, cryptoutil.Address, string, []byte, BlockContext) ([]byte, error) {
	return nil, fmt.Errorf("no queries")
}

// TestDifferentialParallelDeleteAndPrefixConflicts: crafted blocks where
// correctness hinges on delete-read and prefix-read conflicts being
// detected — a put followed by a del of the same key, a put followed by
// a count over its prefix, and a set-then-delete of a base-absent key
// whose net diff must still carry the deletion marker.
func TestDifferentialParallelDeleteAndPrefixConflicts(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	ex := rwExecutor{}
	mk := func(nonce uint64, method, k, v string) *Tx {
		tx, err := NewTx(key, nonce, testContractAddr(), method, setArgs{Key: k, Value: v}, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	st := NewState()
	foldSet(st, testContractAddr().String()+"/item/seeded", "x")

	// Block 1: the del of "a" must observe put("a") before it (conflict via
	// delete-read); the count must observe every put/del before it
	// (conflict via prefix-read); "ghost" is created then deleted, so the
	// block diff must carry its deletion marker even though the base never
	// held it.
	txs := []*Tx{
		mk(0, "put", "a", "1"),
		mk(1, "del", "a", ""),
		mk(2, "put", "b", "2"),
		mk(3, "count", "n1", ""),
		mk(4, "put", "ghost", "tmp"),
		mk(5, "del", "ghost", ""),
		mk(6, "del", "missing", ""),
		mk(7, "count", "n2", ""),
	}
	for _, workers := range parallelWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bctx := BlockContext{Number: 1, Time: chainEpoch}
			serialOv := NewOverlay(st)
			serial := replayTxs(ex, serialOv, txs, txHashes(nil, txs), bctx)
			parOv := NewOverlay(st)
			par := replayTxsParallelObs(ex, parOv, txs, txHashes(nil, txs), bctx, workers, noopMetrics)
			requireSameExecution(t, "delete/prefix block", serial, par, serialOv, parOv)

			// Spot-check semantics, not just equality: the del of "a" saw the
			// earlier put, the first count saw {seeded, b}, the second count
			// saw the same after ghost came and went.
			if got := string(par[1].Events[0].Data); got != "deleted:yes" {
				t.Fatalf("del(a) observed %q, want deleted:yes", got)
			}
			if got := string(par[3].Events[0].Data); got != "2" {
				t.Fatalf("count n1 = %s, want 2 (seeded+b)", got)
			}
			if got := string(par[7].Events[0].Data); got != "2" {
				t.Fatalf("count n2 = %s, want 2", got)
			}
		})
	}
}

// scheduleExecutor wraps an executor for the scheduler tests: it counts
// ExecuteTx calls and holds each one up the way the test chooses, so
// children finish in an order the test controls rather than in claim
// order.
type scheduleExecutor struct {
	Executor
	calls atomic.Int64
	hold  func(tx *Tx) // nil: no hold-up
}

func (e *scheduleExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	e.calls.Add(1)
	if e.hold != nil {
		e.hold(tx)
	}
	return e.Executor.ExecuteTx(st, tx, bctx)
}

// seededDelays holds each transaction of a block up for its own delay,
// drawn from seed: a different completion order per seed. The hold is a
// yielding spin — the host's sleep granularity (about a millisecond)
// would round every delay to the same value.
func seededDelays(seed int64, hashes []cryptoutil.Hash) func(*Tx) {
	rng := rand.New(rand.NewSource(seed))
	delays := make(map[cryptoutil.Hash]time.Duration, len(hashes))
	for _, h := range hashes {
		delays[h] = time.Duration(rng.Intn(120)) * time.Microsecond
	}
	return func(tx *Tx) {
		for start, d := time.Now(), delays[tx.Hash()]; time.Since(start) < d; {
			runtime.Gosched()
		}
	}
}

// scheduleTestWorkers are the widths the schedule tests sweep: the
// serial degenerate case, the smallest real pool, an odd one, and one
// wider than any host this runs on.
var scheduleTestWorkers = []int{1, 2, 3, 8}

// plantedConflictTxs builds an n-transaction block whose first conflict
// is exactly at index at (at >= 1: nothing is written ahead of index 0,
// so it can never conflict): blind writes to distinct keys, with a
// read-modify-write of one hot counter at index 0, at index at, and at
// every index after it — so the serial tail's result depends on its
// order. at == n plants nothing.
func plantedConflictTxs(t testing.TB, key *cryptoutil.KeyPair, n, at int) []*Tx {
	t.Helper()
	txs := make([]*Tx, n)
	for i := range txs {
		method, args := "set", setArgs{Key: fmt.Sprintf("k%03d", i), Value: "v"}
		if at < n && (i == 0 || i >= at) {
			method, args = "incr", setArgs{Key: "hot"}
		}
		tx, err := NewTx(key, uint64(i), testContractAddr(), method, args, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	return txs
}

// TestParallelScheduleIndependence: the conflict index is found while
// children are still finishing, in whatever order the host schedules
// them — and must not depend on that order. Every transaction is held
// for a seeded random delay so completion order is a fresh permutation
// each repetition; with the first conflict planted early, at the pool's
// edge, at the last index, and nowhere, every width and every repetition
// must reproduce the serial path's receipts, root and diff, and report
// the same conflict and serial-tail counts.
func TestParallelScheduleIndependence(t *testing.T) {
	const n, reps = 16, 20
	key := cryptoutil.MustGenerateKey()
	bctx := BlockContext{Number: 1, Time: chainEpoch}
	for _, workers := range scheduleTestWorkers {
		plants := map[int]bool{1: true, 2: true, workers - 1: true, workers: true, n - 1: true, n: true}
		for at := range plants {
			if at < 1 {
				continue
			}
			t.Run(fmt.Sprintf("workers=%d/conflictAt=%d", workers, at), func(t *testing.T) {
				txs := plantedConflictTxs(t, key, n, at)
				hashes := txHashes(nil, txs)
				st := NewState()
				for rep := range reps {
					serialOv := NewOverlay(st)
					serial := replayTxs(testExecutor{}, serialOv, txs, hashes, bctx)
					ex := &scheduleExecutor{Executor: testExecutor{}, hold: seededDelays(int64(rep), hashes)}
					m := NewMetrics(obs.NewRegistry())
					parOv := NewOverlay(st)
					par := replayTxsParallelObs(ex, parOv, txs, hashes, bctx, workers, m)
					requireSameExecution(t, fmt.Sprintf("rep %d", rep), serial, par, serialOv, parOv)

					wantConflicts, wantTail := uint64(0), uint64(0)
					if workers > 1 && at < n {
						wantConflicts, wantTail = 1, uint64(n-at)
					}
					if c, tail := m.ExecConflicts.Value(), m.SerialTailTxs.Value(); c != wantConflicts || tail != wantTail {
						t.Fatalf("rep %d: conflicts=%d serial tail=%d, want %d and %d", rep, c, tail, wantConflicts, wantTail)
					}
					// Whatever was started and not merged is what was discarded,
					// and a conflict-free block discards nothing.
					if d, wasted := m.ExecDiscarded.Value(), uint64(ex.calls.Load())-uint64(n); d != wasted {
						t.Fatalf("rep %d: discarded=%d, executor saw %d calls for %d txs", rep, d, ex.calls.Load(), n)
					}
				}
			})
		}
	}
}

// TestParallelWasteBound: on a block where every transaction conflicts,
// the optimistic pass is doomed from index 1, and the scheduler must stop
// paying for it about as soon as the first two children are in: with
// equal-cost transactions the executor is called once per transaction
// plus a few per worker (every worker may hold one execution in flight
// and claim one more before it sees the stop), not twice per
// transaction. A conflict-free block of the same size wastes nothing.
func TestParallelWasteBound(t *testing.T) {
	const n = 256
	key := cryptoutil.MustGenerateKey()
	bctx := BlockContext{Number: 1, Time: chainEpoch}
	// Equal cost as a sleep, not a spin: the bound is about which
	// executions get started, and a sleeping worker cannot be starved of
	// a CPU by its neighbours on a small or busy host.
	equalCost := func(*Tx) { time.Sleep(300 * time.Microsecond) }
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("all-conflict/workers=%d", workers), func(t *testing.T) {
			txs := plantedConflictTxs(t, key, n, 1)
			ex := &scheduleExecutor{Executor: testExecutor{}, hold: equalCost}
			m := NewMetrics(obs.NewRegistry())
			receipts := replayTxsParallelObs(ex, NewOverlay(NewState()), txs, txHashes(nil, txs), bctx, workers, m)
			if ev := receipts[n-1].Events; len(ev) != 1 || string(ev[0].Data) != strconv.Itoa(n) {
				t.Fatalf("final counter event = %+v, want %d", ev, n)
			}
			calls := int(ex.calls.Load())
			if limit := n + 8*workers; calls > limit {
				t.Fatalf("executor called %d times for %d txs, want <= %d (executing the whole block twice is %d)", calls, n, limit, 2*n-1)
			}
			if d := m.ExecDiscarded.Value(); d != uint64(calls-n) || d == 0 {
				t.Fatalf("discarded=%d, want calls-txs = %d (and at least the conflicting child)", d, calls-n)
			}
			if c, tail := m.ExecConflicts.Value(), m.SerialTailTxs.Value(); c != 1 || tail != n-1 {
				t.Fatalf("conflicts=%d serial tail=%d, want 1 and %d", c, tail, n-1)
			}
		})
		t.Run(fmt.Sprintf("conflict-free/workers=%d", workers), func(t *testing.T) {
			txs := plantedConflictTxs(t, key, n, n)
			ex := &scheduleExecutor{Executor: testExecutor{}}
			m := NewMetrics(obs.NewRegistry())
			replayTxsParallelObs(ex, NewOverlay(NewState()), txs, txHashes(nil, txs), bctx, workers, m)
			if calls, d := ex.calls.Load(), m.ExecDiscarded.Value(); calls != n || d != 0 {
				t.Fatalf("calls=%d discarded=%d, want %d and 0", calls, d, n)
			}
			if c, tail := m.ExecConflicts.Value(), m.SerialTailTxs.Value(); c != 0 || tail != 0 {
				t.Fatalf("conflicts=%d serial tail=%d, want 0 and 0", c, tail)
			}
		})
	}
}

// TestParallelScheduleRevertAndPrefixReads: two read-set corners the
// in-order walk must get right under a permuted completion order. A
// transaction that reverts in both paths sits in the clean prefix and
// contributes no writes; a transaction whose OPTIMISTIC run reverts on a
// stale read must still be caught by that read (the rollback keeps the
// read set), or its reverted receipt would be merged where the serial
// path succeeds. And a Keys listing is the first conflict of a block
// whose earlier transactions only write blindly.
func TestParallelScheduleRevertAndPrefixReads(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	mk := func(nonce int, method, k string) *Tx {
		tx, err := NewTx(key, uint64(nonce), testContractAddr(), method, setArgs{Key: k, Value: "v"}, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	st := NewState()
	foldSet(st, testContractAddr().String()+"/item/held", "x", testContractAddr().String()+"/item/freed", "x")

	for _, tc := range []struct {
		name       string
		txs        []*Tx
		conflictAt int
		reverted   []int // indexes the serial path reverts
	}{
		{
			name: "stale revert",
			txs: []*Tx{
				mk(0, "put", "a"),
				mk(1, "claim", "held"), // taken in every path: reverts, clean prefix
				mk(2, "put", "b"),
				mk(3, "del", "freed"),
				mk(4, "claim", "freed"), // optimistic run sees it taken; serially it is free
				mk(5, "put", "c"),
				mk(6, "claim", "a"), // the other way round: serially taken
			},
			conflictAt: 4,
			reverted:   []int{1, 6},
		},
		{
			name: "prefix read first",
			txs: []*Tx{
				mk(0, "put", "a"),
				mk(1, "put", "b"),
				mk(2, "put", "c"),
				mk(3, "count", "n1"),
				mk(4, "put", "d"),
				mk(5, "count", "n2"),
			},
			conflictAt: 3,
		},
	} {
		for _, workers := range scheduleTestWorkers[1:] {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				bctx := BlockContext{Number: 1, Time: chainEpoch}
				hashes := txHashes(nil, tc.txs)
				for rep := range 20 {
					ex := &scheduleExecutor{Executor: rwExecutor{}, hold: seededDelays(int64(rep), hashes)}
					serialOv := NewOverlay(st)
					serial := replayTxs(rwExecutor{}, serialOv, tc.txs, hashes, bctx)
					m := NewMetrics(obs.NewRegistry())
					parOv := NewOverlay(st)
					par := replayTxsParallelObs(ex, parOv, tc.txs, hashes, bctx, workers, m)
					requireSameExecution(t, fmt.Sprintf("rep %d", rep), serial, par, serialOv, parOv)
					if tail := m.SerialTailTxs.Value(); tail != uint64(len(tc.txs)-tc.conflictAt) {
						t.Fatalf("rep %d: serial tail %d, want the block from index %d on (%d)", rep, tail, tc.conflictAt, len(tc.txs)-tc.conflictAt)
					}
					var reverted []int
					for i, r := range par {
						if r.Status != StatusOK {
							reverted = append(reverted, i)
						}
					}
					if fmt.Sprint(reverted) != fmt.Sprint(tc.reverted) {
						t.Fatalf("rep %d: reverted %v, want %v", rep, reverted, tc.reverted)
					}
				}
			})
		}
	}
}

// TestDifferentialParallelCluster: a two-authority cluster sealing with
// the parallel scheduler (GOMAXPROCS 4) must produce exactly the chain a
// serial cluster (GOMAXPROCS 1) produces from the same transactions —
// and every ApplyBlock validation (itself running the parallel
// scheduler) must accept the roots. This is the node-level wiring proof
// for seal + ApplyBlock.
func TestDifferentialParallelCluster(t *testing.T) {
	keyA, keyB := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	auths := []cryptoutil.Address{keyA.Address(), keyB.Address()}

	buildNet := func() (*Network, *simclock.Sim) {
		clk := simclock.NewSim(chainEpoch)
		var nodes []*Node
		for _, k := range []*cryptoutil.KeyPair{keyA, keyB} {
			n, err := NewNode(Config{
				Key: k, Authorities: auths, Executor: testExecutor{},
				Clock: clk, GenesisTime: chainEpoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		net, err := NewNetwork(nodes...)
		if err != nil {
			t.Fatal(err)
		}
		return net, clk
	}
	serialNet, serialClk := buildNet()
	parNet, parClk := buildNet()
	// Each network seals (and its follower validates) at its own
	// GOMAXPROCS, which is the executor's width.
	sealAt := func(net *Network, procs int) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(42))
	senders := []*cryptoutil.KeyPair{keyA, keyB, cryptoutil.MustGenerateKey()}
	nonces := make([]uint64, len(senders))
	for range 8 {
		txs := randomParallelBlockTxs(t, rng, senders, nonces)
		for _, net := range []*Network{serialNet, parNet} {
			if _, err := net.SubmitAllOrNothing(txs); err != nil {
				t.Fatal(err)
			}
		}
		serialClk.Advance(time.Second)
		parClk.Advance(time.Second)
		sealAt(serialNet, 1)
		sealAt(parNet, 4)
	}
	// Compare the chains' execution content, not their hashes: ECDSA
	// signing is randomized, so two independently-sealed-but-identical
	// chains never share signature bytes (and ParentHash covers the
	// parent's signature, so linkage hashes diverge transitively).
	// Everything execution determines — tx root, receipt root, state
	// root, timestamp, proposer, and every receipt — must be identical
	// block for block.
	sNode, pNode := serialNet.nodes[0], parNet.nodes[0]
	if sNode.Height() != pNode.Height() {
		t.Fatalf("heights differ: serial %d, parallel %d", sNode.Height(), pNode.Height())
	}
	for num := uint64(1); num <= sNode.Height(); num++ {
		sb, pb := sNode.BlockByNumber(num), pNode.BlockByNumber(num)
		if sb.Header.TxRoot != pb.Header.TxRoot ||
			sb.Header.ReceiptRoot != pb.Header.ReceiptRoot ||
			sb.Header.StateRoot != pb.Header.StateRoot ||
			!sb.Header.Time.Equal(pb.Header.Time) ||
			sb.Header.Proposer != pb.Header.Proposer {
			t.Fatalf("block %d differs:\nserial   %+v\nparallel %+v", num, sb.Header, pb.Header)
		}
		for i := range sb.Receipts {
			if sb.Receipts[i].Digest() != pb.Receipts[i].Digest() {
				t.Fatalf("block %d receipt %d differs", num, i)
			}
		}
	}
	if sNode.State().Root() != pNode.State().Root() {
		t.Fatal("final state roots differ")
	}
	// Within the parallel cluster, the validator tracked the proposer.
	if a, b := parNet.nodes[0].Head().Hash(), parNet.nodes[1].Head().Hash(); a != b {
		t.Fatalf("parallel cluster diverged: %s vs %s", a.Short(), b.Short())
	}
}

// TestCancelledReceiptWaitsDoNotLeak: the regression test for the
// waiter-map leak — after N waits abandoned via context cancellation for
// a transaction that never commits, the waiters map must be empty again.
func TestCancelledReceiptWaitsDoNotLeak(t *testing.T) {
	n, key, _ := newTestNode(t)
	never := mustTx(t, key, 99, testContractAddr(), "never", "sealed") // nonce 99: never committed

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 128 {
		if _, err := n.WaitForReceipt(ctx, never.Hash()); err == nil {
			t.Fatal("cancelled wait returned a receipt")
		}
	}
	n.mu.Lock()
	leaked := len(n.waiters)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map holds %d entries after cancelled waits, want 0", leaked)
	}

	// A commit racing the cancellation must still surface the receipt to
	// the cancelled waiter if it was delivered before deregistration —
	// and either way, live waiters keep working.
	tx := mustTx(t, key, 0, testContractAddr(), "a", "1")
	if _, err := submit1(n, tx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := n.WaitForReceipt(context.Background(), tx.Hash())
		if err != nil || r == nil {
			t.Errorf("live wait: r=%v err=%v", r, err)
		}
	}()
	if _, err := n.Seal(); err != nil {
		t.Fatal(err)
	}
	<-done
	n.mu.Lock()
	leaked = len(n.waiters)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map holds %d entries after delivery, want 0", leaked)
	}
}

// TestReceiptIndexRebuiltOnRecovery: the hash → receipt index is pure
// bookkeeping over the blocks, and recovery must rebuild it identically —
// every committed transaction resolves to the same receipt through the
// reopened node, and the index holds exactly the committed receipt set.
func TestReceiptIndexRebuiltOnRecovery(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	n := openWithFloor(t, cfg, 1)
	var hashes []cryptoutil.Hash
	for i := range 9 {
		tx := mustTx(t, key, uint64(i), testContractAddr(), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if _, err := submit1(n, tx); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, tx.Hash())
		clk.Advance(time.Second)
		if _, err := n.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	for _, h := range hashes {
		before, after := n.Receipt(h), n2.Receipt(h)
		if before == nil || after == nil {
			t.Fatalf("receipt %s: before=%v after=%v", h.Short(), before, after)
		}
		if before.Digest() != after.Digest() {
			t.Fatalf("receipt %s differs across recovery", h.Short())
		}
	}
	n2.mu.RLock()
	indexed := len(n2.receipts)
	n2.mu.RUnlock()
	if indexed != len(hashes) {
		t.Fatalf("recovered index holds %d receipts, want %d", indexed, len(hashes))
	}
}
