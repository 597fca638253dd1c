package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/policy"
	"repro/internal/tee"
)

const (
	monitorDevices = 16
	monitorPath    = "/data/monitored.bin"
	// roundGrace is how long a round waits for silent devices; it mirrors
	// core's default MonitoringGrace, which the unrolled round cannot read.
	roundGrace = 2 * time.Second
)

// monitorRound runs Fig. 2-6 policy-monitoring rounds, one after another, on
// one resource whose copy sixteen attested consumer devices hold. Rounds on
// one resource are serial, so there is a single closed-loop client.
type monitorRound struct {
	owner   *core.Owner
	holders []*core.Consumer
	rounds  int

	// current is the op and span the traced evidence sources report under.
	currentOp   atomic.Int64
	currentSpan atomic.Uint64
}

func (m *monitorRound) setup(ctx context.Context, e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	o, err := e.d.NewOwner("monitored")
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := o.InitializePod(ctx, nil); err != nil {
		return err
	}
	e.podInitNs = append(e.podInitNs, time.Since(t0).Nanoseconds())
	m.owner = o
	body := payload(rng, podResourceSize)
	if err := o.AddResource(monitorPath, "application/octet-stream", body); err != nil {
		return err
	}
	iri, err := o.Publish(ctx, monitorPath, "monitored resource", benchPolicy(o, monitorPath))
	if err != nil {
		return err
	}
	for i := range monitorDevices {
		c, err := e.d.NewConsumer(fmt.Sprintf("device-%02d", i), benchPurpose)
		if err != nil {
			return err
		}
		m.holders = append(m.holders, c)
	}
	// The seed orders the devices' accesses, and with them the grant order
	// the contract lists monitoring targets in.
	order := rng.Perm(monitorDevices)
	var evidence *lockedRecorder
	if e.tr != nil {
		evidence = &lockedRecorder{r: e.tr.recorder()}
	}
	for _, i := range order {
		c := m.holders[i]
		e.note("monitor access device=%d body=%s", i, digestOf(body))
		if err := o.Grant(ctx, c, monitorPath, benchPurpose); err != nil {
			return err
		}
		if err := c.Access(ctx, iri); err != nil {
			return err
		}
		for range usesPerAccess {
			if _, err := c.Use(iri, policy.ActionUse); err != nil {
				return err
			}
		}
		if evidence != nil {
			// Re-registering a source under the same device address replaces
			// the deployment's own adapter with one that records a span.
			e.d.PullIn().RegisterSource(&tracedSource{app: c.App, m: m, rec: evidence})
		}
	}
	m.rounds = e.ops
	return nil
}

// tracedSource is the pull-in oracle's evidence source for one device, with a
// span around tee.App.Evidence.
type tracedSource struct {
	app *tee.App
	m   *monitorRound
	rec *lockedRecorder
}

func (s *tracedSource) Address() cryptoutil.Address { return s.app.Device().Address() }

func (s *tracedSource) Evidence(iri string, round uint64) (distexchange.SignedEvidence, error) {
	start := time.Now()
	ev, err := s.app.Evidence(iri, round)
	s.rec.record(s.m.currentOp.Load(), s.m.currentSpan.Load(), "tee.evidence", start, time.Now())
	return ev, err
}

func (m *monitorRound) run(ctx context.Context, e *env) []clientResult {
	var res clientResult
	rec := e.tr.recorder()
	for i := range m.rounds {
		res.attempted++
		t0 := time.Now()
		err := m.round(ctx, e, rec, int64(i))
		e.prog.tick(0, 1)
		if err != nil {
			res.fail(1, fmt.Errorf("round %d: %w", i, err))
			continue
		}
		res.ok(t0)
	}
	return []clientResult{res}
}

// round is Owner.Monitor: request a round, wait for the pull-in oracle to
// gather and submit every device's evidence, collect the records. The traced
// run makes the three pod-manager calls itself to time them apart.
func (m *monitorRound) round(ctx context.Context, e *env, rec *recorder, op int64) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	top := rec.begin(op, spanRef{}, "op.monitor-round")
	defer top.end()
	root := rec.beginRelay(op, top, "core.monitor")
	defer root.end()
	m.currentOp.Store(op)
	m.currentSpan.Store(root.id)

	var evidence []distexchange.EvidenceRecord
	var violations []distexchange.Violation
	var err error
	if rec == nil {
		evidence, violations, err = m.owner.Monitor(ctx, monitorPath)
	} else {
		mgr := m.owner.Manager
		sp := rec.beginTx(op, root, "podmanager.start_monitoring", m.owner.Key.Address())
		var round distexchange.MonitoringRound
		round, err = mgr.StartMonitoring(ctx, monitorPath)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.beginRelay(op, root, "oracle.round_wait")
		m.currentSpan.Store(sp.id)
		_, err = mgr.WaitForRoundClosure(monitorPath, round.Round, roundGrace)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.beginTx(op, root, "podmanager.collect_monitoring", m.owner.Key.Address())
		evidence, violations, err = mgr.CollectMonitoring(ctx, monitorPath, round.Round)
		sp.end()
	}
	if err != nil {
		return err
	}
	if len(evidence) != monitorDevices || len(violations) != 0 {
		return fmt.Errorf("%d evidence records and %d violations, want %d and 0", len(evidence), len(violations), monitorDevices)
	}
	return nil
}

func (m *monitorRound) verify(*env) []check { return nil }
