package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestSigTableColdWarmReplay is the verified-signature table's
// differential on the workload it exists for. A three-validator deployment
// runs monitoring rounds over 16 devices, one of which forges its
// signature; the sealed blocks — the very same bytes — are then replayed
// into fresh validators with the table cold, warm, and with its counters
// detached. Every replay must accept every block (ApplyBlock re-executes
// and compares both roots) and end on the deployment's head, receipt for
// receipt: a hit changes what a validator pays, never what it decides.
// Each row sets GOMAXPROCS, which is every validator's executor width.
func TestSigTableColdWarmReplay(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			cryptoutil.ForgetVerified()
			reg := obs.NewRegistry()
			t.Cleanup(func() { cryptoutil.Instrument(nil) })
			counts := func() (hits, misses uint64) {
				return reg.Counter("cryptoutil_sigcache_hits_total", "").Value(),
					reg.Counter("cryptoutil_sigcache_misses_total", "").Value()
			}
			d := newDeployment(t, Config{
				Validators: 3, OracleFanout: true, Obs: reg,
				MonitoringGrace: 50 * time.Millisecond,
			})
			ctx := context.Background()
			owner, iri := ownerWithResource(d, "owner", 512, nil)
			const devices, rounds = 16, 2
			holders := holdersOf(t, d, owner, iri, "holder", devices)
			d.PullIn().RegisterSource(forgingSource{appSource{app: holders[5].App}})
			for range rounds {
				evidence, violations, err := owner.Monitor(ctx, "/data/r.bin")
				if err != nil {
					t.Fatal(err)
				}
				d.PullIn().Wait()
				if len(evidence) != devices-1 || len(violations) != 1 {
					t.Fatalf("%d evidence records and %d violations, want %d and the forger's 1",
						len(evidence), len(violations), devices-1)
				}
			}
			// Each accepted evidence and each device certificate was checked by
			// the proposer and then presented to two followers (less the odd
			// entry a slot-mate evicted in between).
			hits, misses := counts()
			if want := uint64(2 * (rounds*(devices-1) + devices)); hits*10 < want*9 {
				t.Errorf("deployment run: %d hits (%d misses), want about %d or more", hits, misses, want)
			}

			origin := d.Nodes[0]
			proposerKeys := d.Network.AuthorityKeys()
			replay := func(name string) (hits, misses uint64) {
				t.Helper()
				cfg := d.Configs[1]
				cfg.DataDir, cfg.Persist, cfg.Metrics = "", store.Options{}, nil
				replica, err := chain.NewNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer replica.Close()
				h0, m0 := counts()
				for num := uint64(1); num <= origin.Height(); num++ {
					block := origin.BlockByNumber(num)
					if err := replica.ApplyBlock(block, proposerKeys[block.Header.Proposer]); err != nil {
						t.Fatalf("%s replay, block %d: %v", name, num, err)
					}
					got := replica.BlockByNumber(num)
					if got.Hash() != block.Hash() || len(got.Receipts) != len(block.Receipts) {
						t.Fatalf("%s replay, block %d: %s with %d receipts, origin %s with %d",
							name, num, got.Hash(), len(got.Receipts), block.Hash(), len(block.Receipts))
					}
					for i, r := range got.Receipts {
						if r.Digest() != block.Receipts[i].Digest() {
							t.Fatalf("%s replay, block %d receipt %d differs:\nreplica %+v\norigin  %+v",
								name, num, i, r, block.Receipts[i])
						}
					}
				}
				if got, want := replica.Head().Header.StateRoot, origin.Head().Header.StateRoot; got != want {
					t.Fatalf("%s replay: state root %s, origin %s", name, got, want)
				}
				h1, m1 := counts()
				return h1 - h0, m1 - m0
			}

			cryptoutil.ForgetVerified()
			coldHits, coldMisses := replay("cold")
			warmHits, warmMisses := replay("warm")
			t.Logf("workers=%d: run %d hits / %d misses; cold replay %d / %d; warm replay %d / %d",
				workers, hits, misses, coldHits, coldMisses, warmHits, warmMisses)
			// Warm, the forged signatures still miss (a failure is never
			// remembered) and nearly everything else hits: the table is
			// direct-mapped, so two of a hundred entries may share a slot.
			if warmMisses < rounds || warmHits*10 < coldMisses*9 {
				t.Errorf("warm replay: %d hits and %d misses after %d cold misses, of them %d forged",
					warmHits, warmMisses, coldMisses, rounds)
			}
			// One validator executing serially sees every signed object once
			// per replay: cold nothing can hit, and warm makes the same checks.
			// (The parallel executor's discarded executions vary run to run.)
			if workers == 1 && (coldHits != 0 || coldMisses != warmHits+warmMisses) {
				t.Errorf("cold replay: %d hits and %d misses, warm %d and %d; want 0 cold hits and equal totals",
					coldHits, coldMisses, warmHits, warmMisses)
			}

			// Counters detached: the instruments are not part of the outcome.
			cryptoutil.Instrument(nil)
			cryptoutil.ForgetVerified()
			replay("bare cold")
			replay("bare warm")
			cryptoutil.Instrument(reg)
		})
	}
}
