package chain

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// refMerkleRoot is the Merkle root built level by level in fresh slices:
// the reference the in-place fold is checked against.
func refMerkleRoot(leaves []cryptoutil.Hash) cryptoutil.Hash {
	if len(leaves) == 0 {
		return cryptoutil.HashOf(nil)
	}
	level := leaves
	for len(level) > 1 {
		var next []cryptoutil.Hash
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, cryptoutil.HashOf(level[i][:], level[i+1][:]))
		}
		level = next
	}
	return level[0]
}

// scratchBlock builds a block record of txs transactions, each carrying
// argBytes of random arguments, with a receipt per transaction (some with
// events) and a diff entry per transaction.
func scratchBlock(r *rand.Rand, txs, argBytes int) *walBlock {
	b := randomWALBlock(r)
	b.Txs, b.Receipts, b.Diff = nil, nil, nil
	for i := range txs {
		tx := &Tx{
			Nonce:     r.Uint64(),
			SenderKey: make([]byte, 65),
			Method:    "set",
			Args:      make([]byte, argBytes),
			GasLimit:  r.Uint64(),
			GasPrice:  r.Uint64(),
			Signature: make([]byte, 70+r.Intn(3)),
		}
		r.Read(tx.From[:])
		r.Read(tx.Contract[:])
		r.Read(tx.SenderKey)
		r.Read(tx.Args)
		r.Read(tx.Signature)
		b.Txs = append(b.Txs, tx)
		rc := &Receipt{TxHash: tx.Hash(), Status: StatusOK, GasUsed: r.Uint64(), BlockNumber: b.Header.Number}
		for j := range r.Intn(3) {
			rc.Events = append(rc.Events, Event{
				Contract: tx.Contract, Topic: "Set", Key: fmt.Sprintf("k%d", j),
				Data: tx.Args[:min(len(tx.Args), 40)], BlockNumber: rc.BlockNumber, TxHash: rc.TxHash, Index: j,
			})
		}
		if r.Intn(4) == 0 {
			rc.Status, rc.Err = StatusReverted, "out of gas"
		}
		b.Receipts = append(b.Receipts, rc)
		b.Diff = append(b.Diff, Delta{K: fmt.Sprintf("0x%x/k%d", tx.Contract[:4], i), V: tx.Args[:min(len(tx.Args), 64)]})
	}
	return b
}

// TestBlockScratchMatchesFreshEncoding runs seeded blocks, one node's
// scratch shared across all of them in the order ApplyBlock uses it,
// through the scratch path and through fresh buffers: the WAL frame, the
// transaction hashes, the tx root and the receipt root agree byte for
// byte, and the roots agree with a level-by-level reference fold. The
// last block is a small one after two large ones, so a stale byte left in
// the retained buffer would show.
func TestBlockScratchMatchesFreshEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	s := &blockScratch{}
	for _, shape := range []struct {
		name           string
		txs, argsBytes int
	}{
		{"empty", 0, 0},
		{"one tx", 1, 64},
		{"300 txs", 300, 200},
		{"16 KiB of arguments", 1, 16 << 10},
		{"small after large", 1, 8},
	} {
		t.Run(shape.name, func(t *testing.T) {
			b := scratchBlock(r, shape.txs, shape.argsBytes)

			hashes := txHashes(s, b.Txs)
			if fresh := txHashes(nil, b.Txs); !slices.Equal(hashes, fresh) {
				t.Fatal("tx hashes differ between scratch and fresh buffers")
			}
			for i, tx := range b.Txs {
				if hashes[i] != cryptoutil.HashOf(tx.SigningBytes(), tx.Signature) {
					t.Fatalf("tx %d hash is not the hash of its signing bytes and signature", i)
				}
			}
			leaves := slices.Clone(hashes)
			want := refMerkleRoot(hashes)
			if got := txRoot(s, hashes); got != want {
				t.Fatalf("tx root %s, reference %s", got.Short(), want.Short())
			}
			if got := txRoot(nil, hashes); got != want {
				t.Fatalf("fresh tx root %s, reference %s", got.Short(), want.Short())
			}
			if !slices.Equal(hashes, leaves) {
				t.Fatal("merkleRoot modified its leaves")
			}

			digests := make([]cryptoutil.Hash, len(b.Receipts))
			for i, rc := range b.Receipts {
				digests[i] = cryptoutil.HashOf(appendReceipt(nil, rc))
			}
			want = refMerkleRoot(digests)
			if got := receiptRoot(s, b.Receipts); got != want {
				t.Fatalf("receipt root %s, reference %s", got.Short(), want.Short())
			}
			if got := receiptRoot(nil, b.Receipts); got != want {
				t.Fatalf("fresh receipt root %s, reference %s", got.Short(), want.Short())
			}

			frame := encodeWALBlock(s, b)
			if fresh := encodeWALBlock(nil, b); !bytes.Equal(frame, fresh) {
				t.Fatalf("WAL frame differs between scratch (%d bytes) and fresh buffers (%d bytes)", len(frame), len(fresh))
			}
			// The log fills in the record header, as AppendFrame does.
			copy(frame, bytes.Repeat([]byte{0xa5}, store.RecordHeaderSize))
			s.keep(frame)
		})
	}
	if cap(s.buf) == 0 || len(s.levels) == 0 {
		t.Fatal("the scratch kept nothing across blocks")
	}
}

// TestBlockScratchAllocatesNothing pins the point of the retained
// buffers: once they have held a block of this size, encoding its frame,
// taking its receipt root and folding its tx root allocate nothing.
func TestBlockScratchAllocatesNothing(t *testing.T) {
	b := scratchBlock(rand.New(rand.NewSource(1)), 64, 200)
	hashes := txHashes(nil, b.Txs)
	s := &blockScratch{}
	s.keep(encodeWALBlock(s, b))
	receiptRoot(s, b.Receipts)
	for name, f := range map[string]func(){
		"WAL frame":    func() { s.keep(encodeWALBlock(s, b)) },
		"receipt root": func() { receiptRoot(s, b.Receipts) },
		"tx root":      func() { txRoot(s, hashes) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s in the retained buffers allocates %.1f times, want 0", name, n)
		}
	}
}

// TestBlockScratchDropsOversizedBuffers: a buffer or hash slice that grew
// past maxScratchBytes for one block is not kept for the next.
func TestBlockScratchDropsOversizedBuffers(t *testing.T) {
	s := &blockScratch{}
	s.keep(make([]byte, 0, 1024))
	s.keep(make([]byte, 0, maxScratchBytes+1))
	if cap(s.buf) != 1024 {
		t.Errorf("kept a %d-byte buffer, want the 1024-byte one it had", cap(s.buf))
	}
	s.hashes(8)
	s.hashes(maxScratchBytes/len(cryptoutil.Hash{}) + 1)
	if cap(s.levels) != 8 {
		t.Errorf("kept %d hashes, want the 8 it had", cap(s.levels))
	}
	if got := s.bytes(maxScratchBytes + 1); cap(got) < maxScratchBytes+1 {
		t.Errorf("bytes(n) returned capacity %d < n", cap(got))
	}
}

// TestBlockScratchAfterRefusedAppend: the WAL refuses a large block, and
// the frame it refused stays in the node's scratch. The node's next
// committed block writes a frame that decodes to exactly that block, and
// a reopen replays the log to the live node's head, state root, receipts
// and cost ledger. (Nonces and mempool contents after a refused seal are
// a separate defect, left out here.)
func TestBlockScratchAfterRefusedAppend(t *testing.T) {
	dir := t.TempDir()
	key, other := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	n, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sealSet(t, n, key, clk, 0, "a", "1")

	// Refuse the next append: the WAL is closed under the node.
	if err := n.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := submit1(n, mustTx(t, key, 1, testContractAddr(), "big", strings.Repeat("x", 16<<10))); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := n.Seal(); err == nil {
		t.Fatal("seal succeeded with a closed WAL")
	}
	if cap(n.scratch.buf) < 16<<10 {
		t.Fatalf("the refused frame was not kept in the scratch (capacity %d)", cap(n.scratch.buf))
	}
	wal, _, err := store.OpenWAL(WALPath(dir), cfg.Persist)
	if err != nil {
		t.Fatal(err)
	}
	n.wal = wal

	block := sealSet(t, n, other, clk, 0, "c", "3")
	head, root, spent := n.Head().Hash(), n.State().Root(), n.Costs().TotalSpent()
	blocks := make([]*Block, n.Height()+1)
	for h := range blocks {
		blocks[h] = n.BlockByNumber(uint64(h))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	wal, records, err := store.OpenWAL(WALPath(dir), cfg.Persist)
	if err != nil {
		t.Fatal(err)
	}
	last := records[len(records)-1].Payload
	rec, err := decodeWALRecord(last)
	if err != nil {
		t.Fatalf("the block after the refused append: %v", err)
	}
	if rec.Block == nil || rec.Block.Header.Hash() != block.Hash() {
		t.Fatal("the last record is not the block committed after the refused append")
	}
	if got := txHashes(nil, rec.Block.Txs); !slices.Equal(got, txHashes(nil, block.Txs)) {
		t.Fatal("the record's transactions differ from the block's")
	}
	if receiptRoot(nil, rec.Block.Receipts) != block.Header.ReceiptRoot {
		t.Fatal("the record's receipts differ from the block's")
	}
	if again := encodeWALBlock(nil, rec.Block)[store.RecordHeaderSize:]; !bytes.Equal(again, last) {
		t.Fatal("the record does not re-encode to the bytes on disk")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Head().Hash() != head || reopened.State().Root() != root {
		t.Fatal("reopen replays to another head or state root")
	}
	if reopened.Costs().TotalSpent() != spent {
		t.Fatalf("reopen replays to %d gas spent, want %d", reopened.Costs().TotalSpent(), spent)
	}
	for h, want := range blocks {
		got := reopened.BlockByNumber(uint64(h))
		if got == nil || len(got.Receipts) != len(want.Receipts) {
			t.Fatalf("block %d: receipts missing after reopen", h)
		}
		for i := range want.Receipts {
			if got.Receipts[i].Digest() != want.Receipts[i].Digest() {
				t.Fatalf("block %d receipt %d differs after reopen", h, i)
			}
		}
	}
}

// TestBlockScratchConcurrentFollowers drives a durable three-validator
// cluster from two sealing goroutines while a third submits transactions
// of mixed sizes: every round's followers build their roots and frames
// in their own scratch at once. Each node then reopens from its log to
// the live head and state root, and all agree.
func TestBlockScratchConcurrentFollowers(t *testing.T) {
	clk := simclock.NewSim(chainEpoch)
	keys := make([]*cryptoutil.KeyPair, 3)
	auths := make([]cryptoutil.Address, 3)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	cfgs := make([]Config, 3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		cfgs[i] = Config{
			Key: keys[i], Authorities: auths, Executor: testExecutor{},
			Clock: clk, GenesisTime: chainEpoch,
			DataDir: t.TempDir(), Persist: store.Options{Sync: store.SyncNever},
		}
		n, err := OpenNode(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	net, err := NewNetwork(nodes...)
	if err != nil {
		t.Fatal(err)
	}

	sender := cryptoutil.MustGenerateKey()
	const txs = 60
	batch := make([]*Tx, txs)
	for i := range batch {
		v := strings.Repeat("v", 1+(i%7)*(i%7)*300)
		batch[i] = mustTx(t, sender, uint64(i), testContractAddr(), fmt.Sprintf("k%d", i%9), v)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3) // one per goroutine, each sends at most once
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, tx := range batch {
			if _, err := submit1(net, tx); err != nil {
				errs <- err
				return
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := net.SealNext(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for net.PendingTxs() > 0 {
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}

	head, root := nodes[0].Head().Hash(), nodes[0].State().Root()
	for i, n := range nodes {
		if n.Head().Hash() != head || n.State().Root() != root {
			t.Fatalf("node %d diverged from node 0", i)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenNode(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if reopened.Head().Hash() != head || reopened.State().Root() != root {
			t.Errorf("node %d reopens to another head or state root", i)
		}
		if got := reopened.CommittedNonce(sender.Address()); got != txs {
			t.Errorf("node %d reopens with nonce %d, want %d", i, got, txs)
		}
		reopened.Close()
	}
}

// TestSealNextViewAllocatesNothing pins SealNext's membership view: after
// the first block it is refilled in the network's buffers, whole or
// partitioned, without allocating.
func TestSealNextViewAllocatesNothing(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 3)
	view := func(t *testing.T) {
		t.Helper()
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
		net.sealMu.Lock()
		defer net.sealMu.Unlock()
		if n := testing.AllocsPerRun(100, func() { net.copyView(&net.view) }); n != 0 {
			t.Errorf("refilling the view allocates %.1f times, want 0", n)
		}
	}
	t.Run("whole", view)
	if err := net.Partition(map[cryptoutil.Address]int{
		nodes[0].Address(): 0, nodes[1].Address(): 0, nodes[2].Address(): 1,
	}); err != nil {
		t.Fatal(err)
	}
	t.Run("partitioned", view)
	if net.view.cells == nil {
		t.Error("a partitioned cluster's view has no cells")
	}
}
