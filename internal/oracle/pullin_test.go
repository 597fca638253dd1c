package oracle

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// pullInEnv wires a chain with the DE App, registered devices holding a
// copy of one resource, and a pull-in oracle for scripted evidence sources.
type pullInEnv struct {
	node     *chain.Node
	backend  autoSealNode
	deAddr   cryptoutil.Address
	owner    *distexchange.Client
	ownerKey *cryptoutil.KeyPair
	devKeys  []*cryptoutil.KeyPair
	pullIn   *PullIn
	metrics  *Metrics
	clk      *simclock.Sim
	relayed  *relayLog // the submitEvidence transactions that reached the node
}

// scriptedSource returns pre-signed evidence for a device.
type scriptedSource struct {
	addr cryptoutil.Address
	fn   func(iri string, round uint64) (distexchange.SignedEvidence, error)
}

func (s scriptedSource) Address() cryptoutil.Address { return s.addr }
func (s scriptedSource) Evidence(iri string, round uint64) (distexchange.SignedEvidence, error) {
	return s.fn(iri, round)
}

// autoSealNode wraps a node to seal on submit (keeps the test linear) and
// notes every submitEvidence transaction it relays.
type autoSealNode struct {
	*chain.Node
	relayed *relayLog
}

// relayLog holds, per submitEvidence transaction, how many evidence it
// carried.
type relayLog struct {
	mu    sync.Mutex
	items []int
}

func (l *relayLog) list() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.items)
}

func (n autoSealNode) Submit(txs []*chain.Tx) []chain.TxVerdict {
	for _, tx := range txs {
		if tx.Method != "submitEvidence" {
			continue
		}
		// The arguments open with the count of the evidence list.
		count, width := binary.Uvarint(tx.Args)
		if width <= 0 {
			panic("submitEvidence arguments without a count")
		}
		n.relayed.mu.Lock()
		n.relayed.items = append(n.relayed.items, int(count))
		n.relayed.mu.Unlock()
	}
	out := n.Node.Submit(txs)
	if _, err := n.Node.Seal(); err != nil {
		panic(err)
	}
	return out
}

func newPullInEnv(t *testing.T) *pullInEnv { return newPullInEnvWith(t, 1, 0, nil) }

// newPullInEnvWith builds an environment with the given number of devices,
// per-sender mempool quota (0: the chain default) and metrics registry.
func newPullInEnvWith(t *testing.T, devices, senderQuota int, reg *obs.Registry) *pullInEnv {
	t.Helper()
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{ManufacturerCAKey: ca.PublicBytes()}))
	authority := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(t0)
	node, err := chain.NewNode(chain.Config{
		Key:                 authority,
		Authorities:         []cryptoutil.Address{authority.Address()},
		Executor:            rt,
		Clock:               clk,
		GenesisTime:         t0,
		MaxPendingPerSender: senderQuota,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := autoSealNode{node, &relayLog{}}
	ownerKey := cryptoutil.MustGenerateKey()
	owner := distexchange.NewClient(backend, ownerKey, deAddr)
	ctx := context.Background()

	// Register pod + resource, then per device: registration, grant,
	// retrieval.
	if _, err := owner.RegisterPod(ctx, distexchange.RegisterPodArgs{
		OwnerWebID: "https://o/profile#me", Location: "https://o/",
	}); err != nil {
		t.Fatal(err)
	}
	pol := policy.New("https://o/r1", "https://o/profile#me", t0)
	if _, err := owner.RegisterResource(ctx, distexchange.RegisterResourceArgs{
		ResourceIRI: "https://o/r1", PodWebID: "https://o/profile#me",
		Location: "https://o/r1", Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	var m cryptoutil.Hash
	copy(m[:], []byte("measurement-abcdefgh-ijklmnop-qr"))
	devKeys := make([]*cryptoutil.KeyPair, devices)
	for i := range devKeys {
		devKey := cryptoutil.MustGenerateKey()
		devKeys[i] = devKey
		device := distexchange.NewClient(backend, devKey, deAddr)
		cert, err := ca.Issue(devKey, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour*24*365))
		if err != nil {
			t.Fatal(err)
		}
		certRaw := cert.Encode()
		if _, err := device.RegisterDevice(ctx, certRaw); err != nil {
			t.Fatal(err)
		}
		if _, err := owner.RecordGrant(ctx, distexchange.RecordGrantArgs{
			ResourceIRI: "https://o/r1", Consumer: devKey.Address(),
			Device: devKey.Address(), Purpose: policy.PurposeAny,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := device.ConfirmRetrieval(ctx, "https://o/r1"); err != nil {
			t.Fatal(err)
		}
	}

	relay := distexchange.NewClient(backend, cryptoutil.MustGenerateKey(), deAddr)
	metrics := NewMetrics(reg)
	return &pullInEnv{
		node: node, backend: backend, deAddr: deAddr, owner: owner, ownerKey: ownerKey, devKeys: devKeys,
		pullIn: NewPullIn(NewPushOut(node, metrics), relay, metrics), metrics: metrics, clk: clk,
		relayed: backend.relayed,
	}
}

// signedEvidence builds compliant evidence signed by the first device.
func (e *pullInEnv) signedEvidence(t *testing.T, iri string, round uint64) distexchange.SignedEvidence {
	t.Helper()
	return e.signedBy(t, e.devKeys[0], iri, round)
}

func (e *pullInEnv) signedBy(t *testing.T, key *cryptoutil.KeyPair, iri string, round uint64) distexchange.SignedEvidence {
	t.Helper()
	ev := distexchange.Evidence{
		ResourceIRI: iri, Device: key.Address(), Round: round,
		PolicyVersion: 1, StillStored: true,
		RetrievedAt: e.clk.Now(), GeneratedAt: e.clk.Now(),
	}
	sig, err := key.Sign(ev.SigningBytes())
	if err != nil {
		t.Error(err)
	}
	return distexchange.SignedEvidence{Evidence: ev, Signature: sig}
}

func TestPullInAnswersMonitoringRound(t *testing.T) {
	e := newPullInEnv(t)
	e.pullIn.RegisterSource(scriptedSource{
		addr: e.devKeys[0].Address(),
		fn: func(iri string, round uint64) (distexchange.SignedEvidence, error) {
			return e.signedEvidence(t, iri, round), nil
		},
	})
	e.pullIn.Start(e.deAddr)
	defer e.pullIn.Close()

	round, err := e.owner.RequestMonitoring(context.Background(), "https://o/r1")
	if err != nil {
		t.Fatal(err)
	}
	// The oracle reacts asynchronously to the event; poll for closure.
	deadline := time.Now().Add(3 * time.Second)
	for {
		state, err := e.owner.GetMonitoringRound("https://o/r1", round.Round)
		if err != nil {
			t.Fatal(err)
		}
		if state.Closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round never closed")
		}
		time.Sleep(time.Millisecond)
	}
	evidence, err := e.owner.GetEvidence("https://o/r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 || evidence[0].Round != round.Round {
		t.Fatalf("evidence = %+v", evidence)
	}
}

func TestPullInSkipsFailingSource(t *testing.T) {
	e := newPullInEnv(t)
	e.pullIn.RegisterSource(scriptedSource{
		addr: e.devKeys[0].Address(),
		fn: func(string, uint64) (distexchange.SignedEvidence, error) {
			return distexchange.SignedEvidence{}, context.DeadlineExceeded
		},
	})
	e.pullIn.Start(e.deAddr)
	defer e.pullIn.Close()

	round, err := e.owner.RequestMonitoring(context.Background(), "https://o/r1")
	if err != nil {
		t.Fatal(err)
	}
	e.pullIn.Wait()
	// Source failed; the round stays open until the owner closes it.
	state, err := e.owner.GetMonitoringRound("https://o/r1", round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if state.Closed {
		t.Fatal("round closed despite source failure")
	}
	if _, err := e.owner.ReportUnresponsive(context.Background(), "https://o/r1", round.Round); err != nil {
		t.Fatal(err)
	}
	viols, err := e.owner.GetViolations("https://o/r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Kind != distexchange.ViolationUnresponsive {
		t.Fatalf("violations = %+v", viols)
	}
}

func TestPullInUnregisterSource(t *testing.T) {
	e := newPullInEnv(t)
	src := scriptedSource{
		addr: e.devKeys[0].Address(),
		fn: func(iri string, round uint64) (distexchange.SignedEvidence, error) {
			return e.signedEvidence(t, iri, round), nil
		},
	}
	e.pullIn.RegisterSource(src)
	e.pullIn.UnregisterSource(src.Address())
	e.pullIn.Start(e.deAddr)
	defer e.pullIn.Close()

	round, err := e.owner.RequestMonitoring(context.Background(), "https://o/r1")
	if err != nil {
		t.Fatal(err)
	}
	e.pullIn.Wait()
	state, err := e.owner.GetMonitoringRound("https://o/r1", round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if state.Closed {
		t.Fatal("unregistered source still answered")
	}
}

// TestPullInCountsRequestDeliveries: the pull-in oracle's inner push-out
// used to be built without metrics, so the MonitoringRequested events it
// received never showed in Metrics.Out.
func TestPullInCountsRequestDeliveries(t *testing.T) {
	e := newPullInEnv(t)
	e.pullIn.Start(e.deAddr)
	defer e.pullIn.Close()
	for want := uint64(1); want <= 2; want++ {
		if _, err := e.owner.RequestMonitoring(context.Background(), "https://o/r1"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for e.metrics.Out.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("Metrics.Out = %d after %d monitoring requests", e.metrics.Out.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPullInConcurrentRounds: two rounds requested in one block — two
// resources' — are both answered in the next one, by two relay transactions
// under consecutive nonces. The oracle used to answer a round, receipt
// included, before it looked at the next request, so the second round waited
// a block for every round ahead of it.
func TestPullInConcurrentRounds(t *testing.T) {
	e := newPullInEnvWith(t, 2, 0, nil)
	ctx := context.Background()
	iris := []string{"https://o/r1", "https://o/r2"}
	if _, err := e.owner.RegisterResource(ctx, distexchange.RegisterResourceArgs{
		ResourceIRI: iris[1], PodWebID: "https://o/profile#me", Location: iris[1],
		Policy: policy.New(iris[1], "https://o/profile#me", t0),
	}); err != nil {
		t.Fatal(err)
	}
	holder := e.devKeys[1]
	if _, err := e.owner.RecordGrant(ctx, distexchange.RecordGrantArgs{
		ResourceIRI: iris[1], Consumer: holder.Address(), Device: holder.Address(), Purpose: policy.PurposeAny,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := distexchange.NewClient(e.backend, holder, e.deAddr).ConfirmRetrieval(ctx, iris[1]); err != nil {
		t.Fatal(err)
	}

	// This oracle's relay submits to the bare node: nothing seals but the test.
	relayKey := cryptoutil.MustGenerateKey()
	pullIn := NewPullIn(NewPushOut(e.node, nil), distexchange.NewClient(e.node, relayKey, e.deAddr), nil)
	for _, key := range e.devKeys {
		pullIn.RegisterSource(scriptedSource{addr: key.Address(), fn: func(iri string, round uint64) (distexchange.SignedEvidence, error) {
			return e.signedBy(t, key, iri, round), nil
		}})
	}
	pullIn.Start(e.deAddr)
	defer pullIn.Close()

	nonce := e.node.NonceFor(e.ownerKey.Address())
	requests := make([]*chain.Tx, len(iris))
	for i, iri := range iris {
		tx, err := chain.NewTx(e.ownerKey, nonce+uint64(i), e.deAddr, "requestMonitoring",
			distexchange.RequestMonitoringArgs{ResourceIRI: iri}, distexchange.DefaultGasLimit)
		if err != nil {
			t.Fatal(err)
		}
		requests[i] = tx
	}
	for _, v := range e.node.Submit(requests) {
		if v.Err != nil {
			t.Fatal(v.Err)
		}
	}
	if block, err := e.node.Seal(); err != nil || len(block.Txs) != 2 {
		t.Fatalf("sealing the two requests: %v", err)
	}

	relay := relayKey.Address()
	deadline := time.Now().Add(3 * time.Second)
	for e.node.NonceFor(relay) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d answers pending with both rounds requested, want 2", e.node.NonceFor(relay))
		}
		time.Sleep(time.Millisecond)
	}
	block, err := e.node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 2 {
		t.Fatalf("%d transactions in the answering block, want 2", len(block.Txs))
	}
	for i, tx := range block.Txs {
		if tx.From != relay || tx.Method != "submitEvidence" || tx.Nonce != uint64(i) || !block.Receipts[i].Succeeded() {
			t.Errorf("transaction %d: %s from %s, nonce %d, %s", i, tx.Method, tx.From.Short(), tx.Nonce, block.Receipts[i].Err)
		}
	}
	pullIn.Wait()
	for _, iri := range iris {
		if state, err := e.owner.GetMonitoringRound(iri, 1); err != nil || !state.Closed {
			t.Errorf("%s round 1: closed=%v err=%v", iri, state.Closed, err)
		}
	}
}

// TestPullInBatchRelay drives 16-target rounds through the relay: one
// submitEvidence transaction per round, whatever the sender quota. In every
// row the ledger must hold one record per relayed device, in target order
// under consecutive sequence numbers — so a sequential and a fanned-out
// gather leave the same ledger — and closing the round must flag exactly the
// devices whose evidence never made it.
func TestPullInBatchRelay(t *testing.T) {
	const devices = 16
	rows := []struct {
		name    string
		fanout  bool
		quota   int
		failing []int // target positions whose source returns an error
		forging []int // target positions whose evidence carries a bad signature
		// relayed is how many evidence the round's one transaction carries:
		// a failing source has nothing to relay, a forged evidence travels
		// and is refused there.
		relayed int
	}{
		{name: "sequential gather", relayed: 16},
		{name: "fanned-out gather", fanout: true, relayed: 16},
		{name: "sender quota below the round size", fanout: true, quota: 4, relayed: 16},
		{name: "a failing source and a reverted evidence sink only themselves", fanout: true, failing: []int{2}, forging: []int{9}, relayed: 15},
		{name: "the same, gathered sequentially", failing: []int{2}, forging: []int{9}, relayed: 15},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			e := newPullInEnvWith(t, devices, row.quota, reg)
			e.pullIn.Fanout = row.fanout
			byAddr := make(map[cryptoutil.Address]*cryptoutil.KeyPair, devices)
			for _, k := range e.devKeys {
				byAddr[k.Address()] = k
			}
			ctx := context.Background()
			const iri = "https://o/r1"

			// Sources are scripted by target position, which is only known
			// once a round lists the targets: learn it from a first round
			// nobody answers.
			probe, err := e.owner.RequestMonitoring(ctx, iri)
			if err != nil {
				t.Fatal(err)
			}
			if len(probe.Targets) != devices {
				t.Fatalf("%d targets, want %d", len(probe.Targets), devices)
			}
			silent := map[cryptoutil.Address]bool{}
			for pos, target := range probe.Targets {
				key := byAddr[target]
				src := scriptedSource{addr: target, fn: func(iri string, round uint64) (distexchange.SignedEvidence, error) {
					return e.signedBy(t, key, iri, round), nil
				}}
				switch {
				case slices.Contains(row.failing, pos):
					silent[target] = true
					src.fn = func(string, uint64) (distexchange.SignedEvidence, error) {
						return distexchange.SignedEvidence{}, context.DeadlineExceeded
					}
				case slices.Contains(row.forging, pos):
					silent[target] = true
					src.fn = func(iri string, round uint64) (distexchange.SignedEvidence, error) {
						signed := e.signedBy(t, key, iri, round)
						signed.Signature[len(signed.Signature)-1] ^= 1
						return signed, nil
					}
				}
				e.pullIn.RegisterSource(src)
			}

			e.pullIn.Start(e.deAddr)
			defer e.pullIn.Close()
			round, err := e.owner.RequestMonitoring(ctx, iri)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for reg.Histogram("oracle_pullin_round_ns", "").Count() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the oracle never finished the round")
				}
				time.Sleep(time.Millisecond)
			}

			state, err := e.owner.GetMonitoringRound(iri, round.Round)
			if err != nil {
				t.Fatal(err)
			}
			if state.Closed != (len(silent) == 0) {
				t.Errorf("closed=%v with %d devices silent", state.Closed, len(silent))
			}
			evidence, err := e.owner.GetRoundEvidence(iri, round.Round)
			if err != nil {
				t.Fatal(err)
			}
			var relayed []cryptoutil.Address
			for _, target := range round.Targets {
				if !silent[target] {
					relayed = append(relayed, target)
				}
			}
			if len(evidence) != len(relayed) {
				t.Fatalf("%d evidence records, want %d", len(evidence), len(relayed))
			}
			for i, rec := range evidence {
				if rec.Evidence.Device != relayed[i] || rec.Seq != uint64(i+1) {
					t.Errorf("record %d: device %s seq %d, want %s seq %d",
						i, rec.Evidence.Device.Short(), rec.Seq, relayed[i].Short(), i+1)
				}
			}
			if !slices.Equal(state.Responded, relayed) {
				t.Errorf("responded %v, want %v", state.Responded, relayed)
			}

			if got := e.relayed.list(); !slices.Equal(got, []int{row.relayed}) {
				t.Errorf("relay transactions carrying %v evidence, want one carrying %d", got, row.relayed)
			}

			count := func(result string) uint64 {
				return reg.Counter("oracle_pullin_evidence_total", "", obs.L("result", result)).Value()
			}
			if s, f, r := count("submitted"), count("source_error"), count("reverted"); s != uint64(len(relayed)) ||
				f != uint64(len(row.failing)) || r != uint64(len(row.forging)) {
				t.Errorf("oracle_pullin_evidence_total: submitted=%d source_error=%d reverted=%d, want %d/%d/%d",
					s, f, r, len(relayed), len(row.failing), len(row.forging))
			}

			if len(silent) == 0 {
				return
			}
			if _, err := e.owner.ReportUnresponsive(ctx, iri, round.Round); err != nil {
				t.Fatal(err)
			}
			violations, err := e.owner.GetRoundViolations(iri, round.Round)
			if err != nil {
				t.Fatal(err)
			}
			if len(violations) != len(silent) {
				t.Errorf("%d violations, want %d", len(violations), len(silent))
			}
			for _, v := range violations {
				if !silent[v.Device] || v.Kind != distexchange.ViolationUnresponsive {
					t.Errorf("unexpected violation %+v", v)
				}
			}
		})
	}
}
