package distexchange

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// replica is an independent node+runtime with the DE App under identical
// configuration.
type replica struct {
	node   *chain.Node
	client *Client
	owner  *Client
}

func newReplica(t *testing.T, ca *cryptoutil.Authority, clk *simclock.Sim, ownerKey, deviceKey *cryptoutil.KeyPair) *replica {
	t.Helper()
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()}))
	authority := cryptoutil.MustGenerateKey()
	node, err := chain.NewNode(chain.Config{
		Key:         authority,
		Authorities: []cryptoutil.Address{authority.Address()},
		Executor:    rt,
		Clock:       clk,
		GenesisTime: t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := sealingBackend{node: node}
	return &replica{
		node:   node,
		client: NewClient(backend, deviceKey, deAddr),
		owner:  NewClient(backend, ownerKey, deAddr),
	}
}

// TestStateDeterminismAcrossReplicas: the same DE App operation sequence
// executed on two independent nodes yields identical state roots — the
// property that lets validators re-execute blocks and agree (§V-2). The
// sequence is randomized per run via testing/quick.
func TestStateDeterminismAcrossReplicas(t *testing.T) {
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		clk := simclock.NewSim(t0)
		ownerKey := cryptoutil.MustGenerateKey()
		deviceKey := cryptoutil.MustGenerateKey()
		a := newReplica(t, ca, clk, ownerKey, deviceKey)
		b := newReplica(t, ca, clk, ownerKey, deviceKey)
		ctx := context.Background()

		// Apply an identical randomized operation sequence to both.
		apply := func(r *replica) error {
			localRng := rand.New(rand.NewSource(seed)) // same stream per replica
			if _, err := r.owner.RegisterPod(ctx, RegisterPodArgs{
				OwnerWebID: "https://o/profile#me", Location: "https://o/",
			}); err != nil {
				return err
			}
			n := 2 + localRng.Intn(4)
			for i := range n {
				iri := fmt.Sprintf("https://o/r%d", i)
				pol := policy.New(iri, "https://o/profile#me", t0)
				pol.MaxRetention = time.Duration(1+localRng.Intn(100)) * time.Hour
				if _, err := r.owner.RegisterResource(ctx, RegisterResourceArgs{
					ResourceIRI: iri, PodWebID: "https://o/profile#me",
					Location: iri, Policy: pol,
				}); err != nil {
					return err
				}
				if localRng.Intn(2) == 0 {
					v2 := pol.NextVersion(t0.Add(time.Hour))
					v2.MaxUses = uint64(localRng.Intn(50))
					if _, err := r.owner.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: v2}); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := apply(a); err != nil {
			t.Logf("replica a: %v", err)
			return false
		}
		if err := apply(b); err != nil {
			t.Logf("replica b: %v", err)
			return false
		}
		rootA := a.node.State().Root()
		rootB := b.node.State().Root()
		if rootA != rootB {
			t.Logf("state roots diverged for seed %d: %s vs %s", seed, rootA, rootB)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
