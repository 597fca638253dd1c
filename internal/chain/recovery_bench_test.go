package chain_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

// BenchmarkSnapshotRecovery measures chain.OpenNode recovery time at two
// ledger lengths of DE App registrations (hence the external test
// package) under the recovery-cost snapshot rule (store.SnapshotDue): one
// whose whole diff stays below the 1 MiB floor, so recovery replays it
// all, and one that crosses it, so recovery loads a snapshot and replays
// the tail. The snapshots written while ingesting and the state size are
// reported beside the time.
func BenchmarkSnapshotRecovery(b *testing.B) {
	const perBlock = 64
	for _, blocks := range []int{16, 96} {
		b.Run(fmt.Sprintf("txs=%d", blocks*perBlock), func(b *testing.B) {
			dir := b.TempDir()
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC))
			runtime := contract.NewRuntime()
			deAddr := runtime.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{}))
			cfg := chain.Config{
				Key:         key,
				Authorities: []cryptoutil.Address{key.Address()},
				Executor:    runtime,
				Clock:       clk,
				GenesisTime: clk.Now(),
				DataDir:     dir,
				Persist:     store.Options{Sync: store.SyncNever},
				Metrics:     chain.NewMetrics(obs.NewRegistry()),
			}
			node, err := chain.OpenNode(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := range blocks {
				txs := make([]*chain.Tx, perBlock)
				for j := range txs {
					id := i*perBlock + j
					args := distexchange.RegisterPodArgs{
						OwnerWebID: fmt.Sprintf("https://owner%d.example/profile#me", id),
						Location:   fmt.Sprintf("https://owner%d.example/", id),
					}
					if txs[j], err = chain.NewTx(key, uint64(id), deAddr, "registerPod", args, distexchange.DefaultGasLimit); err != nil {
						b.Fatal(err)
					}
				}
				for _, v := range node.Submit(txs) {
					if v.Err != nil {
						b.Fatal(v.Err)
					}
				}
				clk.Advance(time.Second)
				if _, err := node.Seal(); err != nil {
					b.Fatal(err)
				}
			}
			wantRoot, stateBytes := node.State().Root(), node.State().Bytes()
			if err := node.Close(); err != nil {
				b.Fatal(err)
			}
			snapshots := cfg.Metrics.SnapshotWrite.Count()
			b.ResetTimer()
			for b.Loop() {
				reopened, err := chain.OpenNode(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if reopened.Height() != uint64(blocks) || reopened.State().Root() != wantRoot {
					b.Fatalf("bad recovery: height %d root mismatch", reopened.Height())
				}
				if err := reopened.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snapshots), "snapshots")
			b.ReportMetric(float64(stateBytes)/(1<<20), "state-MiB")
		})
	}
}
