package chain

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// TestSharedValuesUnderConcurrentCommits: a stored value slice is never
// copied on the ledger path, so one slice is read at once by the
// transactions that read it through an overlay view, by queries, by the
// background snapshot writer and by exports, while commits replace it.
// A three-validator durable cluster with a snapshot floor of one byte
// (every block's rewrite triggers a snapshot) seals "incr" blocks over a
// few hot keys — each one reads the value it replaces — while readers
// query every validator and hash every value an export shares. Under
// -race this shows any write to a shared slice; without it, each
// validator's root must still be that of the bytes it holds.
func TestSharedValuesUnderConcurrentCommits(t *testing.T) {
	clk := simclock.NewSim(chainEpoch)
	const validators, hotKeys, blocks = 3, 4, 30
	keys := make([]*cryptoutil.KeyPair, validators)
	auths := make([]cryptoutil.Address, validators)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	nodes := make([]*Node, validators)
	dirs := make([]string, validators)
	for i := range nodes {
		dirs[i] = t.TempDir()
		cfg := durableConfig(dirs[i], keys[i], clk)
		cfg.Authorities = auths
		nodes[i] = openWithFloor(t, cfg, 1)
		n := nodes[i]
		t.Cleanup(func() { _ = n.Close() })
	}
	net, err := NewNetwork(nodes...)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, n := range nodes {
		readers.Add(2)
		go func() { // queries: State.Get copies what leaves the ledger
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = n.Query(testContractAddr(), "get", setArgs{Key: fmt.Sprintf("hot%d", i%hotKeys)}.AppendArgs(nil))
			}
		}()
		go func() { // exports share the stored slices themselves
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, v := range n.State().ExportShared() {
					_ = cryptoutil.HashOf([]byte(k), v)
				}
			}
		}()
	}

	sender := cryptoutil.MustGenerateKey()
	for b := range blocks {
		txs := make([]*Tx, hotKeys)
		for i := range txs {
			nonce := uint64(b*hotKeys + i)
			if txs[i], err = NewTx(sender, nonce, testContractAddr(), "incr", setArgs{Key: fmt.Sprintf("hot%d", i)}, 100_000); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := submitAll(net, txs); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	head := nodes[0].Head().Hash()
	for i, n := range nodes {
		if n.Head().Hash() != head {
			t.Fatalf("validator %d: head differs", i)
		}
		if root, _ := recompute(n.State()); root != n.State().Root() {
			t.Fatalf("validator %d: a stored value changed after it was hashed", i)
		}
		if seqs, err := store.ListSnapshots(dirs[i]); err != nil || len(seqs) == 0 {
			t.Fatalf("validator %d: no snapshot written (%v, %v)", i, seqs, err)
		}
		want := fmt.Sprintf(`{"value":"%d"}`, blocks)
		if got, err := n.Query(testContractAddr(), "get", setArgs{Key: "hot0"}.AppendArgs(nil)); err != nil || string(got) != want {
			t.Fatalf("validator %d: hot0 = %s (%v), want %s", i, got, err, want)
		}
	}
}
