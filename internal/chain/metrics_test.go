package chain

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// meteredWorkload is a pre-signed transaction schedule, built once so
// differential runs feed both nodes byte-identical transactions
// (signatures are randomized, so re-signing would change tx roots).
type meteredWorkload struct {
	blocks [][]*Tx // 3 blocks of 8 "set" txs
	gaps   []*Tx   // one nonce-gap reject per block
}

func makeMeteredWorkload(t *testing.T, key *cryptoutil.KeyPair) *meteredWorkload {
	t.Helper()
	wl := &meteredWorkload{}
	nonce := uint64(0)
	for block := range 3 {
		var txs []*Tx
		for i := range 8 {
			tx, err := NewTx(key, nonce, testContractAddr(), "set", setArgs{
				Key:   fmt.Sprintf("k%d-%d", block, i),
				Value: "v",
			}, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			nonce++
			txs = append(txs, tx)
		}
		wl.blocks = append(wl.blocks, txs)
		wl.gaps = append(wl.gaps, mustTx(t, key, nonce+7, testContractAddr(), "x", "y"))
	}
	return wl
}

// buildMeteredChain runs the workload — mixed submissions, parallel
// execution, rejections, duplicates, receipt waits — on a node with the
// given metrics handle and returns the node. Its blocks execute at the
// caller's GOMAXPROCS.
func buildMeteredChain(t *testing.T, key *cryptoutil.KeyPair, wl *meteredWorkload, m *Metrics) *Node {
	t.Helper()
	clk := simclock.NewSim(chainEpoch)
	node, err := NewNode(Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		Clock:       clk,
		GenesisTime: chainEpoch,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for block, txs := range wl.blocks {
		hashes, err := submitAll(node, txs)
		if err != nil {
			t.Fatal(err)
		}
		// Duplicate rebroadcast (an idempotent success that queues
		// nothing) and a nonce-gap rejection.
		if _, err := submit1(node, txs[0]); err != nil {
			t.Fatalf("duplicate: %v", err)
		}
		if _, err := submit1(node, wl.gaps[block]); err == nil {
			t.Fatal("nonce gap accepted")
		}
		// Register a receipt waiter BEFORE sealing so one transaction per
		// block deterministically exercises the commit→receipt delivery
		// (and its trace stage); the private waiters map tells us when the
		// goroutine has registered.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		waitDone := make(chan error, 1)
		go func() {
			_, err := node.WaitForReceipt(ctx, hashes[0])
			waitDone <- err
		}()
		for registered := false; !registered; {
			node.mu.RLock()
			registered = len(node.waiters[hashes[0]]) > 0
			node.mu.RUnlock()
			if !registered {
				time.Sleep(time.Millisecond)
			}
		}
		clk.Advance(time.Second)
		if _, err := node.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := <-waitDone; err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	return node
}

// followChain replays origin's blocks into a fresh follower, which checks
// every seal (through the verified-signature table) and both roots.
func followChain(t *testing.T, key *cryptoutil.KeyPair, origin *Node) {
	t.Helper()
	follower, err := NewNode(Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		Clock:       simclock.NewSim(chainEpoch),
		GenesisTime: chainEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for num := uint64(1); num <= origin.Height(); num++ {
		if err := follower.ApplyBlock(origin.BlockByNumber(num), key.PublicBytes()); err != nil {
			t.Fatalf("follower rejected block %d: %v", num, err)
		}
	}
}

// TestDifferentialMetricsBitIdentity pins the no-observer-effect
// contract: the same workload on a metered node and a bare node must
// produce bit-identical blocks — hashes, receipt roots, state roots —
// and a follower accepts either chain whether or not the process-wide
// signature-table counters are attached. Each row sets GOMAXPROCS,
// which is the executor's width.
func TestDifferentialMetricsBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			key := cryptoutil.MustGenerateKey()
			wl := makeMeteredWorkload(t, key)
			reg := obs.NewRegistry()
			cryptoutil.Instrument(reg)
			metered := buildMeteredChain(t, key, wl, NewMetrics(reg))
			followChain(t, key, metered)
			cryptoutil.Instrument(nil)
			bare := buildMeteredChain(t, key, wl, nil)
			followChain(t, key, bare)
			sigChecks := reg.Counter("cryptoutil_sigcache_hits_total", "").Value() +
				reg.Counter("cryptoutil_sigcache_misses_total", "").Value()
			if sigChecks != metered.Height() {
				t.Fatalf("signature-table counters saw %d checks, want one per followed block (%d)", sigChecks, metered.Height())
			}

			if mh, bh := metered.Height(), bare.Height(); mh != bh {
				t.Fatalf("heights differ: metered %d, bare %d", mh, bh)
			}
			// Signatures are randomized ECDSA, so compare everything the
			// protocol commits to: tx roots, receipt roots, state roots,
			// timestamps, and the per-receipt digests.
			for num := uint64(0); num <= bare.Height(); num++ {
				mh, bh := metered.BlockByNumber(num).Header, bare.BlockByNumber(num).Header
				if mh.TxRoot != bh.TxRoot || mh.ReceiptRoot != bh.ReceiptRoot ||
					mh.StateRoot != bh.StateRoot || !mh.Time.Equal(bh.Time) {
					t.Fatalf("block %d diverges with metrics enabled:\nmetered %+v\nbare    %+v", num, mh, bh)
				}
				mr, br := metered.BlockByNumber(num).Receipts, bare.BlockByNumber(num).Receipts
				if len(mr) != len(br) {
					t.Fatalf("block %d receipt counts differ: %d vs %d", num, len(mr), len(br))
				}
				for i := range mr {
					if mr[i].Digest() != br[i].Digest() {
						t.Fatalf("block %d receipt %d differs:\nmetered %+v\nbare    %+v", num, i, mr[i], br[i])
					}
				}
			}
		})
	}
}

// TestBlockExecutionFollowsGOMAXPROCS pins what sizes block execution:
// the executor runs one worker per GOMAXPROCS, and nothing else selects
// its path. At 1 an 8-transaction block takes the serial path; at 4 it
// goes through the parallel scheduler on four workers; a block under
// minParallelTxs stays serial at any width.
func TestBlockExecutionFollowsGOMAXPROCS(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	m := NewMetrics(obs.NewRegistry())
	node, err := NewNode(Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		Clock:       clk,
		GenesisTime: chainEpoch,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nonce := uint64(0)
	sealAt := func(procs, txs int) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		for range txs {
			if _, err := submit1(node, mustTx(t, key, nonce, testContractAddr(), fmt.Sprintf("k%d", nonce), "v")); err != nil {
				t.Fatal(err)
			}
			nonce++
		}
		clk.Advance(time.Second)
		block, err := node.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if len(block.Txs) != txs {
			t.Fatalf("sealed %d txs, want %d", len(block.Txs), txs)
		}
	}
	for _, step := range []struct {
		procs, txs       int
		serial, parallel uint64
		workers          int64
	}{
		{procs: 1, txs: 8, serial: 1},
		{procs: 4, txs: 8, serial: 1, parallel: 1, workers: 4},
		{procs: 4, txs: 3, serial: 2, parallel: 1, workers: 4},
	} {
		sealAt(step.procs, step.txs)
		serial, parallel, workers := m.SerialBlocks.Value(), m.ParallelBlocks.Value(), m.ExecWorkers.Value()
		if serial != step.serial || parallel != step.parallel || workers != step.workers {
			t.Fatalf("after a %d-tx block at GOMAXPROCS %d: serial=%d parallel=%d workers=%d, want %d, %d and %d",
				step.txs, step.procs, serial, parallel, workers, step.serial, step.parallel, step.workers)
		}
	}
}

// TestChainMetricsRecorded asserts the instrumented hot paths actually
// move their series.
func TestChainMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	key := cryptoutil.MustGenerateKey()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	buildMeteredChain(t, key, makeMeteredWorkload(t, key), m)

	if got := m.Admitted.Value(); got != 24 {
		t.Fatalf("admitted = %d, want 24", got)
	}
	if m.Duplicates.Value() != 3 {
		t.Fatalf("duplicates = %d, want 3", m.Duplicates.Value())
	}
	if m.RejectedNonce.Value() != 3 {
		t.Fatalf("rejected nonce = %d, want 3", m.RejectedNonce.Value())
	}
	if m.BlocksCommitted.Value() != 3 {
		t.Fatalf("blocks committed = %d, want 3", m.BlocksCommitted.Value())
	}
	if m.BlockTxs.Count() != 3 || m.BlockTxs.Sum() != 24 {
		t.Fatalf("block txs count/sum = %d/%d, want 3/24", m.BlockTxs.Count(), m.BlockTxs.Sum())
	}
	if m.SealDuration.Count() != 3 {
		t.Fatalf("seal durations = %d, want 3", m.SealDuration.Count())
	}
	if m.VerifyLatency.Count() == 0 || m.FoldLatency.Count() != 3 || m.ReceiptWait.Count() != 3 {
		t.Fatalf("latency counts: verify=%d fold=%d wait=%d",
			m.VerifyLatency.Count(), m.FoldLatency.Count(), m.ReceiptWait.Count())
	}
	// 8-tx conflict-free blocks through the parallel scheduler.
	if m.ParallelBlocks.Value() != 3 || m.ExecConflicts.Value() != 0 || m.ExecDiscarded.Value() != 0 {
		t.Fatalf("parallel=%d conflicts=%d discarded=%d", m.ParallelBlocks.Value(), m.ExecConflicts.Value(), m.ExecDiscarded.Value())
	}
	if m.ExecWorkers.Value() != 4 {
		t.Fatalf("exec workers = %d, want 4", m.ExecWorkers.Value())
	}
	if m.MempoolDepth.Value() != 0 {
		t.Fatalf("mempool depth = %d after drain", m.MempoolDepth.Value())
	}

	// Every trace must have completed (commit or receipt).
	recent := m.Tracer.Recent()
	if len(recent) != 24 {
		t.Fatalf("completed traces = %d, want 24", len(recent))
	}
	stages := func(tr obs.TxTrace) string {
		var s []string
		for _, sp := range tr.Spans {
			s = append(s, sp.Stage)
		}
		return strings.Join(s, ",")
	}
	receiptTraces := 0
	for _, tr := range recent {
		got := stages(tr)
		switch got {
		case "submit,admit,merge,commit":
		case "submit,admit,merge,commit,receipt":
			receiptTraces++
		default:
			t.Fatalf("trace %s has unexpected stages %q", tr.ID, got)
		}
	}
	if receiptTraces != 3 {
		t.Fatalf("traces through the receipt stage = %d, want 3 (one waited tx per block)", receiptTraces)
	}

	// The registry must render all of it as valid exposition text with
	// enough series for the CI smoke gate.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := seriesCountForTest(b.String()); n < 25 {
		t.Fatalf("chain registry renders %d series, want >= 25:\n%s", n, b.String())
	}
}

// seriesCountForTest counts exposition samples (non-comment lines).
func seriesCountForTest(exposition string) int {
	n := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
	}
	return n
}
