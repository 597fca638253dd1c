package chain

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

// benchLedger builds a committed state with n seeded keys.
func benchLedger(n int) *State {
	seed := make([]Delta, 0, n)
	for i := range n {
		seed = append(seed, Delta{K: fmt.Sprintf("seed/%07d", i), V: []byte(fmt.Sprintf("value-%d", i))})
	}
	st := NewState()
	st.applyDeltas(seed)
	return st
}

// benchBlockTxs signs one block's worth of "set" transactions.
func benchBlockTxs(b *testing.B, key *cryptoutil.KeyPair, count int) []*Tx {
	b.Helper()
	txs := make([]*Tx, 0, count)
	for i := range count {
		tx, err := NewTx(key, uint64(i), testContractAddr(), "set",
			setArgs{Key: fmt.Sprintf("k%03d", i), Value: "benchmark-value"}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

// BenchmarkOverlayApplyBlock measures the state-replay half of block
// validation — the part ApplyBlock runs per proposed block — on the
// copy-on-write overlay, across ledger sizes. It should stay flat as the
// ledger grows: an overlay only pays for the keys the block touches.
func BenchmarkOverlayApplyBlock(b *testing.B) {
	key := cryptoutil.MustGenerateKey()
	txs := benchBlockTxs(b, key, 32)
	ex := testExecutor{}
	bctx := BlockContext{Number: 1, Time: chainEpoch}
	for _, ledger := range []int{1_000, 10_000, 100_000} {
		st := benchLedger(ledger)
		b.Run(fmt.Sprintf("ledger=%d/path=overlay", ledger), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				overlay := NewOverlay(st)
				_ = replayTxs(ex, overlay, txs, txHashes(nil, txs), bctx)
				_ = overlay.TakeDeltas()
			}
		})
	}
}

// BenchmarkCodecEncodeBlock measures encoding a realistic 64-tx block
// record (512-byte payloads), reporting the encoded size alongside
// speed.
func BenchmarkCodecEncodeBlock(b *testing.B) {
	block := benchWALBlock(64, 512)
	b.ReportAllocs()
	var size int
	for b.Loop() {
		buf := encodeWALBlock(nil, block)
		size = len(buf) - store.RecordHeaderSize
	}
	b.ReportMetric(float64(size), "bytes/rec")
}

// BenchmarkCommitLatency measures reader tail latency (p99 of State.Get)
// while a durable node commits block after block, with no snapshot due
// versus one forced at every second block (far more often than the
// recovery-cost rule ever asks). Because the export is taken outside the
// ledger lock and serialized on a background goroutine, the p99 with
// snapshots on should sit in the same range as with them off — readers
// are never blocked by snapshotting.
func BenchmarkCommitLatency(b *testing.B) {
	for _, mode := range []struct {
		name      string
		snapEvery int
	}{
		{"snapshots=off", 0},
		{"snapshots=bg-every-2", 2},
	} {
		b.Run(mode.name, func(b *testing.B) {
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(chainEpoch)
			n, err := OpenNode(durableConfig(b.TempDir(), key, clk))
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			// Pre-grow the ledger so snapshot serialization has real work.
			seed := make([]Delta, 0, 20_000)
			for i := range 20_000 {
				seed = append(seed, Delta{K: fmt.Sprintf("seed/%05d", i), V: []byte("seed-value")})
			}
			n.State().applyDeltas(seed)

			stop := make(chan struct{})
			latencies := make(chan []time.Duration, 1)
			readKey := []byte(testContractAddr().String() + "/k0")
			go func() {
				var lats []time.Duration
				for {
					select {
					case <-stop:
						latencies <- lats
						return
					default:
					}
					t0 := time.Now()
					n.State().Get(readKey)
					lats = append(lats, time.Since(t0))
				}
			}()

			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				tx, err := NewTx(key, uint64(i), testContractAddr(), "set",
					setArgs{Key: fmt.Sprintf("k%d", i%64), Value: "v"}, 200_000)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := submit1(n, tx); err != nil {
					b.Fatal(err)
				}
				clk.Advance(time.Second)
				if mode.snapEvery > 0 && i%mode.snapEvery == 0 {
					n.tailBytes = store.SnapshotFloor // forces the next commit to snapshot
				}
				if _, err := n.Seal(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			lats := <-latencies
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				p99 := lats[len(lats)*99/100]
				b.ReportMetric(float64(p99.Nanoseconds()), "p99-read-ns")
			}
		})
	}
}

// benchFloodPool builds a mempool filled with senders×perSender
// equally-priced transactions (quota = perSender), returning the pool
// and the signing keys in sender order.
func benchFloodPool(b *testing.B, capacity, senders, perSender int, price uint64) (*mempool, []*cryptoutil.KeyPair) {
	b.Helper()
	mp := newMempool(capacity, perSender)
	keys := make([]*cryptoutil.KeyPair, senders)
	for s := range senders {
		keys[s] = cryptoutil.MustGenerateKey()
		for n := range perSender {
			tx, err := NewTxPriced(keys[s], uint64(n), testContractAddr(), "set",
				setArgs{Key: fmt.Sprintf("s%03d-n%03d", s, n), Value: "v"}, 200_000, price)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mp.Add(tx.Hash(), tx); err != nil {
				b.Fatal(err)
			}
		}
	}
	return mp, keys
}

// BenchmarkFloodIngestion measures the admission machinery's per-verdict
// cost under flood conditions: a plain admit with headroom, the two
// rejection paths a flood rides (price floor and sender quota — both
// must stay cheap, they are the pool's self-defense), and the
// evict-and-admit cycle a priced transaction pays at a full pool. Pools
// are pre-filled outside the timed loop; admit paths restore the pool
// each iteration so every pass measures the same state. Node-level flood
// behavior (signatures, sealing, settlement under sustained overload) is
// covered by the scenario engine's tx-flood op and its starvation-freedom
// invariant.
func BenchmarkFloodIngestion(b *testing.B) {
	const (
		capacity  = 1024
		senders   = 128
		perSender = 8
	)
	b.Run("verdict=admit", func(b *testing.B) {
		mp, _ := benchFloodPool(b, 2*capacity, senders, perSender, DefaultGasPrice)
		key := cryptoutil.MustGenerateKey()
		tx, err := NewTxPriced(key, 0, testContractAddr(), "set",
			setArgs{Key: "probe", Value: "v"}, 200_000, DefaultGasPrice)
		if err != nil {
			b.Fatal(err)
		}
		h := tx.Hash()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := mp.Add(h, tx); err != nil {
				b.Fatal(err)
			}
			mp.Remove(h)
		}
	})
	b.Run("verdict=reject-underpriced", func(b *testing.B) {
		mp, _ := benchFloodPool(b, capacity, senders, perSender, DefaultGasPrice)
		key := cryptoutil.MustGenerateKey()
		flood, err := NewTxPriced(key, 0, testContractAddr(), "set",
			setArgs{Key: "flood", Value: "v"}, 200_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		h := flood.Hash()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := mp.Add(h, flood); !errors.Is(err, ErrUnderpriced) {
				b.Fatalf("want ErrUnderpriced, got %v", err)
			}
		}
	})
	b.Run("verdict=reject-quota", func(b *testing.B) {
		mp, keys := benchFloodPool(b, capacity, senders, perSender, DefaultGasPrice)
		over, err := NewTxPriced(keys[0], perSender, testContractAddr(), "set",
			setArgs{Key: "over", Value: "v"}, 200_000, DefaultGasPrice)
		if err != nil {
			b.Fatal(err)
		}
		h := over.Hash()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := mp.Add(h, over); !errors.Is(err, ErrQuotaExceeded) {
				b.Fatalf("want ErrQuotaExceeded, got %v", err)
			}
		}
	})
	b.Run("verdict=admit-evict", func(b *testing.B) {
		mp, _ := benchFloodPool(b, capacity, senders, perSender, DefaultGasPrice)
		key := cryptoutil.MustGenerateKey()
		probe, err := NewTxPriced(key, 0, testContractAddr(), "set",
			setArgs{Key: "probe", Value: "v"}, 200_000, 2*DefaultGasPrice)
		if err != nil {
			b.Fatal(err)
		}
		h := probe.Hash()
		b.ReportAllocs()
		for b.Loop() {
			evicted, err := mp.Add(h, probe)
			if err != nil || evicted == nil {
				b.Fatalf("want eviction, got evicted=%v err=%v", evicted, err)
			}
			mp.Remove(h)
			// Re-queue the victim: the pool returns to its exact
			// pre-iteration occupancy (the victim was its sender's tail, so
			// re-adding it is contiguous).
			if _, err := mp.Add(evicted.hash, evicted.tx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// parexecBenchExecutor is the parallel-execution benchmark workload: per
// transaction it burns a deterministic amount of CPU (iterated hashing,
// standing in for real contract logic — codec work, ACL walks, signature
// checks) and then does one read-modify-write of the key named in the
// args. With per-tx unique keys the block is conflict-free; with one
// shared key every transaction conflicts with its predecessor.
type parexecBenchExecutor struct {
	rounds int
}

func (e parexecBenchExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	var args setArgs
	if err := json.Unmarshal(tx.Args, &args); err != nil {
		return &Receipt{Status: StatusReverted, Err: err.Error()}
	}
	sum := sha256.Sum256(tx.Args)
	for range e.rounds {
		sum = sha256.Sum256(sum[:])
	}
	key := tx.Contract.String() + "/" + args.Key
	prev, _ := st.Get([]byte(key))
	st.Set(key, append(prev[:0:0], sum[:8]...))
	return &Receipt{Status: StatusOK, GasUsed: GasTxBase}
}

func (parexecBenchExecutor) Query(StateReader, cryptoutil.Address, string, []byte, BlockContext) ([]byte, error) {
	return nil, fmt.Errorf("no queries")
}

// parexecBenchTxs signs one block of benchmark transactions. hotKey ""
// gives every transaction its own key (conflict-free); non-empty sends
// every transaction to that single key (100% conflicts).
func parexecBenchTxs(b *testing.B, key *cryptoutil.KeyPair, count int, hotKey string) []*Tx {
	b.Helper()
	txs := make([]*Tx, 0, count)
	for i := range count {
		k := hotKey
		if k == "" {
			k = fmt.Sprintf("k%04d", i)
		}
		tx, err := NewTx(key, uint64(i), testContractAddr(), "set",
			setArgs{Key: k, Value: "benchmark-value"}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

// BenchmarkParallelExecution measures block execution latency across
// worker counts on a conflict-free 1k-tx workload (the scheduler's best
// case: it scales only as far as the host has idle CPUs) and on a
// 100%-conflict workload (the worst case: the optimistic pass is doomed
// from index 1, so the bar is the serial path's latency plus the handful
// of executions discarded/op counts, not a speedup).
func BenchmarkParallelExecution(b *testing.B) {
	key := cryptoutil.MustGenerateKey()
	ex := parexecBenchExecutor{rounds: 32}
	bctx := BlockContext{Number: 1, Time: chainEpoch}
	st := benchLedger(10_000)
	for _, wl := range []struct {
		name   string
		hotKey string
	}{
		{"conflicts=0pct", ""},
		{"conflicts=100pct", "hot"},
	} {
		txs := parexecBenchTxs(b, key, 1000, wl.hotKey)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				m := NewMetrics(obs.NewRegistry())
				b.ReportAllocs()
				for b.Loop() {
					overlay := NewOverlay(st)
					_ = replayTxsParallelObs(ex, overlay, txs, txHashes(nil, txs), bctx, workers, m)
					_ = overlay.TakeDeltas()
				}
				b.ReportMetric(float64(m.ExecDiscarded.Value())/float64(b.N), "discarded/op")
			})
		}
	}
}

// BenchmarkSnapshotFloor measures what store.SnapshotFloor trades off, at
// the floor's own size: replaying 1 MiB of diff on recovery (apply plus
// the per-block root check — all a snapshot saves, since the WAL is
// decoded either way) against writing a 1 MiB snapshot (export, encode,
// write, fsync, rename, prune) and loading one. Below the floor the
// replay is the cheaper of the two, so no snapshot is taken.
func BenchmarkSnapshotFloor(b *testing.B) {
	// 1 MiB of diff shaped like market-mix blocks: 4 keys of 256 bytes.
	const perBlock, valueSize = 4, 256
	value := make([]byte, valueSize)
	st := NewState()
	var blocks []*Block
	var diffs [][]Delta
	for n := uint64(1); st.Bytes() < store.SnapshotFloor; n++ {
		diff := make([]Delta, perBlock)
		for i := range diff {
			diff[i] = Delta{K: fmt.Sprintf("%s/bucket/%06d-%d", testContractAddr(), n, i), V: value}
		}
		st.applyDeltas(diff)
		blocks = append(blocks, &Block{Header: Header{Number: n, StateRoot: st.Root()}})
		diffs = append(diffs, diff)
	}
	height := uint64(len(blocks))
	payload := appendChainSnapshot(nil, height, st.ExportShared())

	b.Run("replay-1MiB-diff", func(b *testing.B) {
		for b.Loop() {
			if err := applyDiffsFrom(NewState(), blocks, diffs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-1MiB-snapshot", func(b *testing.B) {
		w := &snapshotWriter{dataDir: b.TempDir(), m: noopMetrics}
		for b.Loop() {
			w.write(&snapshotJob{height: height, state: st.ExportShared()})
		}
	})
	b.Run("load-1MiB-snapshot", func(b *testing.B) {
		for b.Loop() {
			if _, err := stateFromSnapshot(height, payload, blocks, diffs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
