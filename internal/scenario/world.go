package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/store"
	"repro/internal/tee"
)

// consumerPurpose is the declared purpose of every scenario consumer.
// Generated policies never constrain purposes, so purpose checks stay
// out of the model: the invariant surface under test is retention,
// isolation, immutability, and funds/nonce bookkeeping.
const consumerPurpose = policy.PurposeWebAnalytics

// stepTimeout bounds any single step's wall-clock time; a step that
// exceeds it indicates a deadlock-class bug (e.g. waiting on a dead
// node's ledger), which the engine reports instead of hanging.
const stepTimeout = 30 * time.Second

// monitorGrace bounds how long a monitoring round may take to close.
const monitorGrace = 10 * time.Second

// copySt models one consumer's TEE-held copy of a resource.
type copySt struct {
	stored      bool // ever stored (live or tombstone)
	live        bool
	retrievedAt time.Time
	hasDeadline bool
	deadline    time.Time
	diedAt      time.Time
	// everLate marks a copy whose deletion instant exceeded some
	// policy-version's deadline — the only holders monitoring may
	// legitimately flag.
	everLate bool
	useCount uint64
}

// resourceSt models one published resource.
type resourceSt struct {
	ownerIdx  int
	path, iri string
	sum       [32]byte
	published bool
	withdrawn bool
	version   uint64
	retention time.Duration
	granted   []int // consumer indices in grant order
	confirmed map[int]bool
	copies    map[int]*copySt
}

func (r *resourceSt) isGranted(consumer int) bool {
	for _, g := range r.granted {
		if g == consumer {
			return true
		}
	}
	return false
}

type ownerSt struct {
	name string
	o    *core.Owner
}

type consumerSt struct {
	name string
	c    *core.Consumer
}

// World is a live deployment plus the model the engine checks it
// against. All execution is single-threaded; background goroutines
// (oracles, timers) are quiesced inside the steps that start them, so a
// run with a fixed plan is deterministic. Custom invariants receive the
// World and inspect live state through Deployment and Now.
type World struct {
	cfg       Config
	d         *core.Deployment
	dataDir   string
	reg       *obs.Registry
	owners    []*ownerSt
	consumers []*consumerSt
	resources []*resourceSt

	// restarted marks validators that have been crash-restarted from
	// disk at least once; the recovery-equivalence invariant holds them
	// to the live cluster's head and state root.
	restarted map[int]bool

	// dupKey is the synthetic sender used by transaction-level faults;
	// dupNonce tracks its committed nonce sequence.
	dupKey   *cryptoutil.KeyPair
	dupNonce uint64

	// partitioned mirrors the active partition's minority membership;
	// healedHeads records every live validator's head at each heal
	// instant, which partition-convergence holds to "still canonical
	// forever" (no committed-block rollback).
	partitioned map[int]bool
	healedHeads []headMark

	// equivAttempts records every injected double-seal; the
	// no-equivocation-accepted invariant re-judges each one after every
	// step. Crash-restarting a target prunes it from the attempt: its
	// in-memory evidence is legitimately gone.
	equivAttempts []*equivAttempt

	// malloryID/malloryKey is the hostile agent driving nonce floods,
	// provisioned lazily on first use.
	malloryID  solid.WebID
	malloryKey *cryptoutil.KeyPair

	// floodKeys is the squad of hostile cheap-tx senders driving
	// OpTxFlood, provisioned lazily; floodEpisodes records each flood's
	// settlement latency for the starvation-freedom invariant.
	floodKeys     []*cryptoutil.KeyPair
	floodEpisodes []floodEpisode
}

// Admission bounds every scenario deployment runs under: tight enough
// that a generated flood overwhelms them in-step, loose enough that
// honest steps (a handful of transactions, sealed per batch) never
// notice.
const (
	floodPoolCap     = 64
	floodSenderQuota = 16
	// floodBlocksBound is K in the starvation-freedom invariant: an
	// adequately-priced settlement submitted during a flood must commit
	// within K sealed blocks.
	floodBlocksBound = 3
)

// floodEpisode records one OpTxFlood: how many sealed blocks the
// adequately-priced probe settlement needed to commit (0 = never, the
// starvation case) and the bound in force at the time.
type floodEpisode struct {
	step   int
	blocks int
	bound  int
}

// headMark pins a (height, hash) observed as some validator's head at a
// heal instant.
type headMark struct {
	height uint64
	hash   cryptoutil.Hash
}

// equivAttempt is the model record of one injected double-seal.
type equivAttempt struct {
	height            uint64
	committed, forged cryptoutil.Hash
	// targets maps validator index -> still expected to hold evidence.
	targets map[int]bool
}

func newWorld(cfg Config) (*World, error) {
	// Every scenario deployment is durable: validators journal blocks to
	// a run-private temp dir, which is what gives the crash-restart fault
	// a store to recover from. SyncNever keeps the disk traffic cheap —
	// in-process crashes lose nothing unflushed, and the torn-tail fault
	// injects the damage a machine crash would cause.
	dataDir, err := os.MkdirTemp("", "scenario-*")
	if err != nil {
		return nil, err
	}
	// Every run carries live instruments: when an invariant fires, the
	// failure report includes a metrics snapshot of the system that
	// produced it. The differential scenario tests pin that metering
	// never perturbs traces, so this costs nothing but the counters.
	reg := obs.NewRegistry()
	d, err := core.NewDeployment(core.Config{
		Validators:      cfg.Validators,
		MonitoringGrace: monitorGrace,
		DataDir:         dataDir,
		WALSync:         store.SyncNever,
		// Deliberately tight admission bounds so the tx-flood fault can
		// overwhelm them with an in-step burst (the knobs ride the node
		// configs, so a crash-restarted validator reopens with the same
		// bounds).
		MempoolCapacity: floodPoolCap,
		SenderQuota:     floodSenderQuota,
		Obs:             reg,
	})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	if cfg.DisableEquivocationGuard {
		d.SetEquivocationGuard(false)
	}
	return &World{
		cfg: cfg, d: d, dataDir: dataDir, reg: reg,
		restarted:   make(map[int]bool),
		dupKey:      cryptoutil.MustGenerateKey(),
		partitioned: make(map[int]bool),
	}, nil
}

// metricsDump renders the world's registry as Prometheus exposition
// text — the observability snapshot attached to failing runs.
func (w *World) metricsDump() string {
	var b bytes.Buffer
	if err := w.reg.WritePrometheus(&b); err != nil {
		return "# metrics dump failed: " + err.Error() + "\n"
	}
	return b.String()
}

func (w *World) close() {
	w.d.Close()
	os.RemoveAll(w.dataDir)
}

func (w *World) now() time.Time { return w.d.Clock.Now() }

// Deployment exposes the live deployment for custom invariants.
func (w *World) Deployment() *core.Deployment { return w.d }

// Now returns the current simulated instant.
func (w *World) Now() time.Time { return w.now() }

// Populations reports the current owner/consumer/resource counts, so
// custom invariants can scale their expectations.
func (w *World) Populations() (owners, consumers, resources int) {
	return len(w.owners), len(w.consumers), len(w.resources)
}

// sel resolves a step selector against a population size.
func sel(raw, n int) int {
	if n <= 0 {
		return -1
	}
	return raw % n
}

// publishedResources lists indices of currently listed resources.
func (w *World) publishedResources() []int {
	var out []int
	for i, r := range w.resources {
		if r.published {
			out = append(out, i)
		}
	}
	return out
}

// classify maps an error to a stable outcome label. Labels must never
// embed run-specific data (addresses, ports, nonces): the trace has to
// be byte-identical across two runs of the same seed.
func classify(err error) string {
	if err == nil {
		return "ok"
	}
	var se *solid.StatusError
	if errors.As(err, &se) {
		return fmt.Sprintf("http-%d", se.Code)
	}
	var re *distexchange.RevertError
	if errors.As(err, &re) {
		return "revert"
	}
	switch {
	case errors.Is(err, tee.ErrNoCopy):
		return "no-copy"
	case errors.Is(err, tee.ErrDeleted):
		return "deleted"
	case errors.Is(err, tee.ErrUseDenied):
		return "use-denied"
	case errors.Is(err, tee.ErrUseRevoked):
		return "use-revoked"
	case errors.Is(err, chain.ErrBadNonce):
		return "bad-nonce"
	case errors.Is(err, solid.ErrForbidden):
		return "forbidden"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "err"
}

// expectation builds an expectation-class failure; apply names it after
// the step's op.
func expectation(format string, args ...any) *Failure {
	return &Failure{Kind: FailExpectation, Detail: fmt.Sprintf(format, args...)}
}

// resourceData derives the deterministic body of resource #i.
func resourceData(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 256+(i%7)*64)
}

// opRun is one step as its op's run function receives it: the plan step,
// its index in the plan, the step's deadline and, for rows with owner
// set, the selected owner.
type opRun struct {
	Step
	ctx   context.Context
	idx   int
	owner int
}

// apply executes one step against the deployment and advances the
// model. It returns a stable outcome label and, when the system's
// behaviour contradicts the model, an expectation failure. The step's
// row in the op table supplies its preconditions and its run function.
func (w *World) apply(stepIdx int, st Step) (string, *Failure) {
	spec := st.Op.spec()
	if spec.run == nil {
		return "skip-unknown-op", nil
	}
	r := opRun{Step: st, idx: stepIdx}
	if spec.owner {
		if r.owner = sel(st.A, len(w.owners)); r.owner < 0 {
			return "skip-no-owner", nil
		}
	}
	if spec.unsplit && w.d.Partitioned() {
		return "skip-partition-active", nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	r.ctx = ctx
	outcome, fail := spec.run(w, r)
	if fail != nil {
		fail.Name = spec.name
	}
	return outcome, fail
}

func (w *World) addOwner(r opRun) (string, *Failure) {
	if len(w.owners) >= w.cfg.MaxOwners {
		return "skip-cap", nil
	}
	name := fmt.Sprintf("o%d", len(w.owners))
	o, err := w.d.NewOwner(name)
	if err == nil {
		err = o.InitializePod(r.ctx, nil)
	}
	if err != nil {
		return classify(err), expectation("provisioning owner %s failed: %v", name, err)
	}
	w.owners = append(w.owners, &ownerSt{name: name, o: o})
	return "ok", nil
}

func (w *World) addConsumer(opRun) (string, *Failure) {
	if len(w.consumers) >= w.cfg.MaxConsumers {
		return "skip-cap", nil
	}
	name := fmt.Sprintf("c%d", len(w.consumers))
	c, err := w.d.NewConsumer(name, consumerPurpose)
	if err != nil {
		return classify(err), expectation("provisioning consumer %s failed: %v", name, err)
	}
	w.consumers = append(w.consumers, &consumerSt{name: name, c: c})
	return "ok", nil
}

func (w *World) publish(r opRun) (string, *Failure) {
	if len(w.resources) >= w.cfg.MaxResources {
		return "skip-cap", nil
	}
	owner := w.owners[r.owner]
	ri := len(w.resources)
	path := fmt.Sprintf("/data/r%03d.bin", ri)
	data := resourceData(ri)
	retDays := r.Arg % 11 // 0 = unlimited
	if err := owner.o.AddResource(path, "application/octet-stream", data); err != nil {
		return classify(err), expectation("upload %s: %v", path, err)
	}
	pol := owner.o.NewPolicy(path)
	pol.MaxRetention = time.Duration(retDays) * 24 * time.Hour
	iri, err := owner.o.Publish(r.ctx, path, fmt.Sprintf("scenario resource %d", ri), pol)
	if err != nil {
		return classify(err), expectation("publish %s: %v", path, err)
	}
	w.resources = append(w.resources, &resourceSt{
		ownerIdx:  r.owner,
		path:      path,
		iri:       iri,
		sum:       sha256.Sum256(data),
		published: true,
		version:   1,
		retention: pol.MaxRetention,
		confirmed: make(map[int]bool),
		copies:    make(map[int]*copySt),
	})
	return fmt.Sprintf("ok ret=%dd", retDays), nil
}

// publishedPair resolves a step's C selector among the published
// resources and its B selector among the consumers (nil when either
// population is empty).
func (w *World) publishedPair(r opRun) (*resourceSt, int) {
	pubs := w.publishedResources()
	ri, ci := sel(r.C, len(pubs)), sel(r.B, len(w.consumers))
	if ri < 0 || ci < 0 {
		return nil, -1
	}
	return w.resources[pubs[ri]], ci
}

func (w *World) grant(r opRun) (string, *Failure) {
	res, ci := w.publishedPair(r)
	if res == nil {
		return "skip-unresolved", nil
	}
	if res.isGranted(ci) {
		return "skip-granted", nil
	}
	owner := w.owners[res.ownerIdx]
	if err := owner.o.Grant(r.ctx, w.consumers[ci].c, res.path, consumerPurpose); err != nil {
		return classify(err), expectation("grant %s to %s: %v", res.path, w.consumers[ci].name, err)
	}
	res.granted = append(res.granted, ci)
	return "ok", nil
}

func (w *World) access(r opRun) (string, *Failure) {
	res, ci := w.publishedPair(r)
	if res == nil {
		return "skip-unresolved", nil
	}
	consumer := w.consumers[ci]
	if res.confirmed[ci] {
		// The grant model is one retrieval per (resource, device):
		// a second confirmRetrieval reverts by design.
		return "skip-confirmed", nil
	}
	err := consumer.c.Access(r.ctx, res.iri)
	if !res.isGranted(ci) {
		// Isolation: an ungranted consumer must never obtain the bytes.
		if err == nil {
			return "ok", expectation("ungranted consumer %s read %s", consumer.name, res.iri)
		}
		return "denied-" + classify(err), nil
	}
	if err != nil {
		return classify(err), expectation("granted consumer %s failed to access %s: %v", consumer.name, res.iri, err)
	}
	cp := &copySt{stored: true, live: true, retrievedAt: w.now()}
	if res.retention > 0 {
		cp.hasDeadline = true
		cp.deadline = cp.retrievedAt.Add(res.retention)
	}
	res.copies[ci] = cp
	res.confirmed[ci] = true
	return "ok", nil
}

func (w *World) use(r opRun) (string, *Failure) {
	ri := sel(r.C, len(w.resources))
	ci := sel(r.B, len(w.consumers))
	if ri < 0 || ci < 0 {
		return "skip-unresolved", nil
	}
	res := w.resources[ri]
	consumer := w.consumers[ci]
	cp := res.copies[ci]
	_, err := consumer.c.Use(res.iri, policy.ActionUse)
	switch {
	case cp == nil || !cp.stored:
		if !errors.Is(err, tee.ErrNoCopy) {
			return classify(err), expectation("use without copy: want no-copy, got %v", err)
		}
		return "no-copy", nil
	case !cp.live:
		if !errors.Is(err, tee.ErrDeleted) {
			return classify(err), expectation("use of deleted copy: want deleted, got %v", err)
		}
		return "deleted", nil
	default:
		if err != nil {
			return classify(err), expectation("use of live copy of %s denied: %v", res.iri, err)
		}
		cp.useCount++
		return "ok", nil
	}
}

// ownResource resolves a step's C selector among the selected owner's
// resources that satisfy keep (nil when none does).
func (w *World) ownResource(r opRun, keep func(*resourceSt) bool) *resourceSt {
	var mine []*resourceSt
	for _, res := range w.resources {
		if res.ownerIdx == r.owner && keep(res) {
			mine = append(mine, res)
		}
	}
	if i := sel(r.C, len(mine)); i >= 0 {
		return mine[i]
	}
	return nil
}

func (w *World) modifyPolicy(r opRun) (string, *Failure) {
	res := w.ownResource(r, func(res *resourceSt) bool { return res.published })
	if res == nil {
		return "skip-no-resource", nil
	}
	owner := w.owners[r.owner]
	newRet := time.Duration(r.Arg%11) * 24 * time.Hour
	pol := owner.o.NewPolicy(res.path)
	pol.Version = res.version + 1
	pol.MaxRetention = newRet
	if err := owner.o.ModifyPolicy(r.ctx, res.path, pol); err != nil {
		return classify(err), expectation("modify policy of %s: %v", res.path, err)
	}
	res.version++
	res.retention = newRet
	// Push-out propagation: every holder that ever stored a copy
	// (tombstones included) must reach the new version.
	for _, ci := range res.granted {
		cp := res.copies[ci]
		if cp == nil || !cp.stored {
			continue
		}
		if err := w.consumers[ci].c.WaitPolicyVersion(res.iri, res.version, 10*time.Second); err != nil {
			return "timeout", expectation("policy v%d never reached %s: %v", res.version, w.consumers[ci].name, err)
		}
	}
	// Fire any zero-delay deletion timers the update armed, then
	// advance the model to the new deadlines.
	w.d.Clock.Advance(0)
	now := w.now()
	for _, ci := range res.granted {
		cp := res.copies[ci]
		if cp == nil || !cp.stored {
			continue
		}
		if newRet > 0 {
			dl := cp.retrievedAt.Add(newRet)
			if cp.live {
				if !now.Before(dl) {
					cp.live = false
					cp.diedAt = now
					if now.After(dl) {
						cp.everLate = true
					}
				} else {
					cp.hasDeadline = true
					cp.deadline = dl
				}
			} else if cp.diedAt.After(dl) {
				// Retroactively late: the copy outlived the deadline the
				// *current* policy version would have imposed, which is
				// exactly what compliance checking evaluates.
				cp.everLate = true
			}
		} else if cp.live {
			cp.hasDeadline = false
			cp.deadline = time.Time{}
		}
	}
	return fmt.Sprintf("ok v=%d ret=%s", res.version, newRet), nil
}

func (w *World) unpublish(r opRun) (string, *Failure) {
	res := w.ownResource(r, func(res *resourceSt) bool { return res.published })
	if res == nil {
		return "skip-no-resource", nil
	}
	if err := w.owners[r.owner].o.Unpublish(r.ctx, res.path); err != nil {
		return classify(err), expectation("unpublish %s: %v", res.path, err)
	}
	res.published = false
	res.withdrawn = true
	return "ok", nil
}

func (w *World) monitor(r opRun) (string, *Failure) {
	res := w.ownResource(r, func(res *resourceSt) bool { return res.published || res.withdrawn })
	if res == nil {
		return "skip-no-resource", nil
	}
	targets := 0
	for _, ci := range res.granted {
		if res.confirmed[ci] {
			targets++
		}
	}
	evidence, violations, err := w.owners[r.owner].o.Monitor(r.ctx, res.path)
	if err != nil {
		return classify(err), expectation("monitor %s: %v", res.path, err)
	}
	if len(evidence) != targets {
		return "short-evidence", expectation("monitor %s: %d evidence from %d targets", res.path, len(evidence), targets)
	}
	return fmt.Sprintf("ok ev=%d viol=%d", len(evidence), len(violations)), nil
}

func (w *World) settle(opRun) (string, *Failure) {
	payouts, err := w.d.Market.Settle(10)
	if err != nil {
		return classify(err), expectation("settle: %v", err)
	}
	return fmt.Sprintf("ok payouts=%d", len(payouts)), nil
}

func (w *World) dropRequest(r opRun) (string, *Failure) {
	owner := w.owners[r.owner]
	target := owner.o.URL() + w.readablePath(r.owner)
	faulty := solid.NewClient(owner.o.WebID, owner.o.Key, w.d.Clock)
	faulty.HTTP = &http.Client{Transport: droppingTransport{}, Timeout: stepTimeout}
	if _, _, err := faulty.Get(target); err == nil {
		return "ok", expectation("injected drop did not surface as an error")
	}
	retry := solid.NewClient(owner.o.WebID, owner.o.Key, w.d.Clock)
	retry.HTTP = stepClient
	if _, _, err := retry.Get(target); err != nil {
		return classify(err), expectation("retry after dropped response failed: %v", err)
	}
	return "drop-retried", nil
}

func (w *World) duplicateTx(opRun) (string, *Failure) {
	tx, err := w.dupTx("dup")
	if err != nil {
		return "err", expectation("build tx: %v", err)
	}
	before := w.liveHeight()
	if _, err := w.d.SubmitBatch([]*chain.Tx{tx}); err != nil {
		return classify(err), expectation("first submit: %v", err)
	}
	w.dupNonce++
	if _, err := w.d.SubmitBatch([]*chain.Tx{tx}); err != nil {
		return classify(err), expectation("duplicate resubmit not idempotent: %v", err)
	}
	after := w.liveHeight()
	if after != before+1 {
		return "re-executed", expectation("duplicate resubmit changed height %d -> %d (want %d)", before, after, before+1)
	}
	return "dup-idempotent", nil
}

func (w *World) reorderTxs(opRun) (string, *Failure) {
	txs := make([]*chain.Tx, 3)
	for i := range txs {
		tx, err := w.dupTx(fmt.Sprintf("reorder%d", i))
		if err != nil {
			return "err", expectation("build tx: %v", err)
		}
		w.dupNonce++
		txs[i] = tx
	}
	// Out of order with a valid head: the batch must fail atomically.
	if _, err := w.d.SubmitBatch([]*chain.Tx{txs[0], txs[2], txs[1]}); !errors.Is(err, chain.ErrBadNonce) {
		return classify(err), expectation("reordered batch: want bad-nonce, got %v", err)
	}
	if pending := w.d.Network.PendingTxs(); pending != 0 {
		return "partial-enqueue", expectation("reordered batch left %d txs queued", pending)
	}
	if _, err := w.d.SubmitBatch(txs); err != nil {
		return classify(err), expectation("in-order batch after reorder: %v", err)
	}
	return "reorder-rejected", nil
}

// pickFollower resolves a step's A selector among validators 1..n-1
// that hold an in-memory node and are down (or up, for down=false).
// Validator 0 hosts the oracles and is never a node-fault target, and a
// crashed validator comes back only through crash-restart's disk path.
// It returns -1 when no validator qualifies.
func (w *World) pickFollower(a int, down bool) int {
	var candidates []int
	for i := 1; i < len(w.d.Nodes); i++ {
		if w.d.ValidatorDown(i) == down && !w.d.ValidatorCrashed(i) {
			candidates = append(candidates, i)
		}
	}
	if ni := sel(a, len(candidates)); ni >= 0 {
		return candidates[ni]
	}
	return -1
}

func (w *World) failNode(r opRun) (string, *Failure) {
	vi := w.pickFollower(r.A, false)
	if vi < 0 {
		return "skip-no-candidate", nil
	}
	if err := w.d.FailValidator(vi); err != nil {
		return "err", expectation("fail validator %d: %v", vi, err)
	}
	return fmt.Sprintf("failed-%d", vi), nil
}

func (w *World) recoverNode(r opRun) (string, *Failure) {
	vi := w.pickFollower(r.A, true)
	if vi < 0 {
		return "skip-no-candidate", nil
	}
	synced, err := w.d.RecoverValidator(vi)
	if err != nil {
		return "err", expectation("recover validator %d: %v", vi, err)
	}
	return fmt.Sprintf("recovered-%d synced=%d", vi, synced), nil
}

func (w *World) clockSkip(r opRun) (string, *Failure) {
	hours := 1 + r.Arg%240
	w.d.Clock.Advance(time.Duration(hours) * time.Hour)
	w.expireCopies()
	return fmt.Sprintf("+%dh", hours), nil
}

func (w *World) sealEmpty(opRun) (string, *Failure) {
	if _, err := w.d.SealBlock(); err != nil {
		return "err", expectation("seal empty block: %v", err)
	}
	return "ok", nil
}

func (w *World) crashRestart(r opRun) (string, *Failure) {
	vi := w.pickFollower(r.A, false)
	if vi < 0 {
		return "skip-no-candidate", nil
	}
	// Crashing the last live validator is refused by design; skip
	// rather than trip over the guard.
	if len(w.liveValidators()) <= 1 {
		return "skip-last-live", nil
	}
	if err := w.d.CrashValidator(vi); err != nil {
		return "err", expectation("crash validator %d: %v", vi, err)
	}
	torn := r.Arg%2 == 1
	if torn {
		// Tear the WAL mid-record: the damage a machine crash leaves.
		// Block records are far larger than the chopped range, so this
		// lands inside the final record.
		if err := w.d.TruncateValidatorWAL(vi, int64(3+r.Arg%24)); err != nil {
			return "err", expectation("tear validator %d wal: %v", vi, err)
		}
	}
	synced, err := w.d.RestartValidatorFromDisk(vi)
	if err != nil {
		return "err", expectation("restart validator %d from disk: %v", vi, err)
	}
	w.restarted[vi] = true
	// The restart wiped the node's in-memory equivocation evidence;
	// stop holding it to attempts it can no longer remember.
	for _, att := range w.equivAttempts {
		delete(att.targets, vi)
	}
	return fmt.Sprintf("restarted-%d torn=%t synced=%d", vi, torn, synced), nil
}

func (w *World) equivocate(r opRun) (string, *Failure) {
	live := w.liveValidators()
	if len(live) < 2 {
		return "skip-too-few-live", nil
	}
	// B selects the gossip subset as a bitmask over the live set —
	// "each block to a different peer subset"; an empty draw targets
	// everyone.
	var targets []int
	for k, vi := range live {
		if r.B&(1<<uint(k)) != 0 {
			targets = append(targets, vi)
		}
	}
	if len(targets) == 0 {
		targets = live
	}
	rep, err := w.d.Equivocate(targets)
	if err != nil {
		return "err", expectation("equivocate: %v", err)
	}
	att := &equivAttempt{
		height: rep.Height, committed: rep.Committed, forged: rep.Forged,
		targets: make(map[int]bool, len(targets)),
	}
	for _, t := range targets {
		att.targets[t] = true
	}
	w.equivAttempts = append(w.equivAttempts, att)
	if w.cfg.DisableEquivocationGuard {
		// Sabotaged guard: injection succeeds silently; the
		// no-equivocation-accepted invariant must catch it at check
		// time.
		return fmt.Sprintf("equivocation-injected h=%d targets=%d", rep.Height, len(targets)), nil
	}
	for t, verr := range rep.Rejections {
		if !errors.Is(verr, chain.ErrEquivocation) {
			return "accepted", expectation(
				"validator %d verdict on forged sibling at height %d: want equivocation, got %v", t, rep.Height, verr)
		}
	}
	return fmt.Sprintf("equivocation-rejected h=%d targets=%d", rep.Height, len(targets)), nil
}

func (w *World) invalidBlock(r opRun) (string, *Failure) {
	live := w.liveValidators()
	if len(live) == 0 {
		return "skip-no-live", nil
	}
	kind := chain.InvalidBlockKind(r.Arg % 3)
	proposer := live[r.A%len(live)]
	before := w.liveHeight()
	verdicts, err := w.d.InjectInvalidBlock(kind, proposer, live)
	if err != nil {
		return "err", expectation("inject %s block: %v", kind, err)
	}
	var want error
	switch kind {
	case chain.InvalidStateRoot:
		want = chain.ErrBadStateRoot
	case chain.InvalidSignature:
		want = chain.ErrBadHeaderSig
	case chain.InvalidGas:
		want = chain.ErrGasTooLarge
	}
	for t, verr := range verdicts {
		if !errors.Is(verr, want) {
			return "accepted", expectation(
				"validator %d verdict on %s block: want %v, got %v", t, kind, want, verr)
		}
	}
	if after := w.liveHeight(); after != before {
		return "height-moved", expectation(
			"invalid %s block moved the head %d -> %d", kind, before, after)
	}
	return fmt.Sprintf("invalid-%s-rejected", kind), nil
}

func (w *World) partition(r opRun) (string, *Failure) {
	n := len(w.d.Nodes)
	if n < 3 {
		return "skip-too-few-validators", nil
	}
	if len(w.liveValidators()) < n {
		// A split over a down node would conflate two fault kinds;
		// partitions only cut healthy links.
		return "skip-node-down", nil
	}
	// Carve a minority of 1..⌊(n-1)/2⌋ from validators 1..n-1
	// (validator 0 hosts the oracles and rides with the quorum, as do
	// the pod hosts — they all sit behind one HTTP server observing
	// node 0).
	size := 1 + r.Arg%((n-1)/2)
	minority := make([]int, 0, size)
	for k := 0; k < size; k++ {
		minority = append(minority, 1+(r.A+k)%(n-1))
	}
	if err := w.d.PartitionValidators(minority...); err != nil {
		return "err", expectation("partition %v: %v", minority, err)
	}
	for _, vi := range minority {
		w.partitioned[vi] = true
	}
	return fmt.Sprintf("partitioned minority=%d", len(minority)), nil
}

func (w *World) heal(opRun) (string, *Failure) {
	if !w.d.Partitioned() {
		return "skip-not-partitioned", nil
	}
	// Pin every live validator's pre-heal head: convergence must only
	// ever extend them, never roll one back.
	for _, i := range w.liveValidators() {
		head := w.d.Nodes[i].Head()
		w.healedHeads = append(w.healedHeads, headMark{height: head.Header.Number, hash: head.Hash()})
	}
	synced, dropped, err := w.d.HealPartition()
	if err != nil {
		return "err", expectation("heal: %v", err)
	}
	w.partitioned = make(map[int]bool)
	return fmt.Sprintf("healed synced=%d dropped=%d", synced, dropped), nil
}

func (w *World) sabotage(r opRun) (string, *Failure) {
	pubs := w.publishedResources()
	ri := sel(r.C, len(pubs))
	if ri < 0 {
		return "skip-no-resource", nil
	}
	res := w.resources[pubs[ri]]
	owner := w.owners[res.ownerIdx]
	if err := owner.o.Manager.Upload(res.path, "application/octet-stream", []byte("corrupted")); err != nil {
		return "err", expectation("sabotage upload: %v", err)
	}
	return "sabotaged", nil
}

// expireCopies marks model copies whose deadline has passed as deleted
// (the TEE timers fired during the clock advance, exactly at the
// deadline instant).
func (w *World) expireCopies() {
	now := w.now()
	for _, res := range w.resources {
		for _, ci := range res.granted {
			cp := res.copies[ci]
			if cp == nil || !cp.live || !cp.hasDeadline {
				continue
			}
			if !now.Before(cp.deadline) {
				cp.live = false
				cp.diedAt = cp.deadline
			}
		}
	}
}

// readablePath picks a path the owner can deterministically read on its
// own pod: its first resource, else the profile document.
func (w *World) readablePath(ownerIdx int) string {
	for _, r := range w.resources {
		if r.ownerIdx == ownerIdx {
			return r.path
		}
	}
	return "/profile"
}

// stepClient is the HTTP client of every honest or hostile request a
// step sends; stepTimeout bounds each one.
var stepClient = &http.Client{Timeout: stepTimeout}

// captured is a signed GET frozen as a hostile client that took it off
// the wire would hold it; what names it in expectation failures.
type captured struct {
	what string
	cr   *solid.CapturedRequest
}

// capture signs a GET of target as agent under a seeded nonce (so the
// capture is deterministic for the seed), decorates it when decorate is
// non-nil, and sends it verbatim once per wanted status, demanding each
// in turn. On a mismatch it returns the observed outcome label and the
// failure.
func (w *World) capture(what string, agent solid.WebID, key *cryptoutil.KeyPair, target, nonce string,
	decorate func(*http.Request), wants ...int) (*captured, string, *Failure) {
	cr, err := solid.Capture(agent, key, w.d.Clock, http.MethodGet, target, nonce)
	if err != nil {
		return nil, "err", expectation("capture %s: %v", what, err)
	}
	if decorate != nil {
		cr.Decorate(decorate)
	}
	c := &captured{what: what, cr: cr}
	out, fail := c.send(wants...)
	return c, out, fail
}

// send re-sends the frozen request once per wanted status.
func (c *captured) send(wants ...int) (string, *Failure) {
	for _, want := range wants {
		got, err := c.cr.Send(stepClient)
		if err != nil {
			return "err", expectation("%s: %v", c.what, err)
		}
		if got != want {
			return fmt.Sprintf("http-%d", got), expectation("%s got HTTP %d, want %d", c.what, got, want)
		}
	}
	return "", nil
}

// replayRequest sends one signed request twice via the hostile-client
// capture helper: the original must succeed, the verbatim replay must be
// rejected (single-use nonce).
func (w *World) replayRequest(r opRun) (string, *Failure) {
	owner := w.owners[r.owner]
	if _, out, fail := w.capture("owner request", owner.o.WebID, owner.o.Key, owner.o.URL()+w.readablePath(r.owner),
		fmt.Sprintf("replay-%d", r.idx), nil, http.StatusOK, http.StatusUnauthorized); fail != nil {
		return out, fail
	}
	return "replay-rejected", nil
}

// liveValidators lists indices of validators that are up and hold an
// in-memory node.
func (w *World) liveValidators() []int {
	var out []int
	for i, n := range w.d.Nodes {
		if n != nil && !w.d.ValidatorDown(i) {
			out = append(out, i)
		}
	}
	return out
}

// otherConsumer returns a consumer different from ci (the "thief" in
// stolen-credential scenarios), or nil when the population is too small.
func (w *World) otherConsumer(ci int) *consumerSt {
	for i, c := range w.consumers {
		if i != ci {
			return c
		}
	}
	return nil
}

// otherPublished returns a published resource index different from ri,
// or -1.
func (w *World) otherPublished(ri int) int {
	for i, r := range w.resources {
		if i != ri && r.published {
			return i
		}
	}
	return -1
}

// credentialReplay plays a malicious pod client splicing captured
// credentials three ways: a verbatim replay of a paid, signed request
// (single-use nonce: 401); a stolen market certificate presented by a
// different consumer under its own valid signature (cert is bound to the
// payer's key: 403); and the rightful payer presenting the certificate
// for a different resource (cert is bound to one IRI: 403).
func (w *World) credentialReplay(r opRun) (string, *Failure) {
	type pair struct{ ri, ci int }
	var pairs []pair
	for ri, res := range w.resources {
		if !res.published {
			continue
		}
		for _, ci := range res.granted {
			pairs = append(pairs, pair{ri, ci})
		}
	}
	pi := sel(r.B, len(pairs))
	if pi < 0 {
		return "skip-no-grant", nil
	}
	res := w.resources[pairs[pi].ri]
	consumer := w.consumers[pairs[pi].ci]
	owner := w.owners[res.ownerIdx]
	target := owner.o.URL() + res.path

	cert, err := w.d.Market.PayFee(string(consumer.c.WebID), res.iri)
	if err != nil {
		return classify(err), expectation("pay fee for %s: %v", res.iri, err)
	}
	attach, err := podmanager.AttachCertificate(cert)
	if err != nil {
		return "err", expectation("encode certificate: %v", err)
	}
	if _, out, fail := w.capture("paid request", consumer.c.WebID, consumer.c.Key, target,
		fmt.Sprintf("credreplay-%d", r.idx), attach, http.StatusOK, http.StatusUnauthorized); fail != nil {
		return out, fail
	}
	if thief := w.otherConsumer(pairs[pi].ci); thief != nil {
		if _, out, fail := w.capture("stolen-certificate request", thief.c.WebID, thief.c.Key, target,
			fmt.Sprintf("credsteal-%d", r.idx), attach, http.StatusForbidden); fail != nil {
			return out, fail
		}
	}
	if cri := w.otherPublished(pairs[pi].ri); cri >= 0 {
		other := w.resources[cri]
		if _, out, fail := w.capture("cross-resource request", consumer.c.WebID, consumer.c.Key,
			w.owners[other.ownerIdx].o.URL()+other.path,
			fmt.Sprintf("credcross-%d", r.idx), attach, http.StatusForbidden); fail != nil {
			return out, fail
		}
	}
	return "cred-replay-rejected", nil
}

// nonceFlood burns a burst of fresh nonces from a hostile agent and
// verifies the replay guard's per-agent isolation: every flood request
// still authenticates (the flooder starves nobody, itself included), an
// honest agent's earlier nonce is still remembered (its replay 401s),
// and a fresh honest request still lands.
func (w *World) nonceFlood(r opRun) (string, *Failure) {
	if w.malloryKey == nil {
		// Mallory is directory-registered like any agent — the attack is
		// resource exhaustion, not identity forgery.
		w.malloryKey = cryptoutil.MustGenerateKey()
		w.malloryID = solid.WebID("https://mallory.example/profile#me")
		w.d.Directory.Register(w.malloryID, w.malloryKey.PublicBytes())
	}
	owner := w.owners[r.owner]
	target := owner.o.URL() + w.readablePath(r.owner)

	honest, out, fail := w.capture("honest request", owner.o.WebID, owner.o.Key, target,
		fmt.Sprintf("nfhonest-%d", r.idx), nil, http.StatusOK)
	if fail != nil {
		return out, fail
	}
	n := 24 + r.Arg%17
	authenticated, err := solid.FloodNonces(stepClient, w.malloryID, w.malloryKey, w.d.Clock, target, n,
		fmt.Sprintf("nf%d", r.idx))
	if err != nil {
		return "err", expectation("flood: %v", err)
	}
	if authenticated != n {
		return "starved", expectation("only %d/%d flood requests authenticated", authenticated, n)
	}
	// The honest nonce must still be remembered after the flood.
	if out, fail := honest.send(http.StatusUnauthorized); fail != nil {
		return out, fail
	}
	if _, out, fail := w.capture("fresh honest request", owner.o.WebID, owner.o.Key, target,
		fmt.Sprintf("nffresh-%d", r.idx), nil, http.StatusOK); fail != nil {
		return out, fail
	}
	return fmt.Sprintf("nonce-flood-contained n=%d", n), nil
}

// txFlood overwhelms the admission layer: a squad of hostile senders
// sprays cheap (gas price 1) transactions at 10x the pool capacity,
// then an honest settlement at the default gas price is submitted into
// the saturated pool. The pool must stay within its bound — quota and
// price-floor rejections, never unbounded growth — and price-ordered
// selection must commit the settlement within floodBlocksBound sealed
// blocks; each episode is recorded for the starvation-freedom
// invariant to re-judge after every subsequent step.
func (w *World) txFlood(r opRun) (string, *Failure) {
	live := w.d.LiveNode()
	if live == nil {
		return "skip-no-live", nil
	}
	const nKeys = 8
	if w.floodKeys == nil {
		// The flooders are ordinary funded identities — the attack is
		// resource exhaustion, not forgery.
		w.floodKeys = make([]*cryptoutil.KeyPair, nKeys)
		for i := range w.floodKeys {
			w.floodKeys[i] = cryptoutil.MustGenerateKey()
		}
	}

	// Spray sender by sender: each key bursts a contiguous nonce run
	// far past its quota, so the run exercises quota rejection, the
	// price floor of a full pool, and the nonce-gap cascade behind a
	// rejected transaction. Rejected nonces are reused next flood — the
	// base always re-derives from the committed ledger.
	total := 10 * floodPoolCap
	perKey := total / nKeys
	var admitted, rejected int
	for k, key := range w.floodKeys {
		base := live.CommittedNonce(key.Address())
		batch := make([]*chain.Tx, 0, perKey)
		for j := range perKey {
			nonce := base + uint64(j)
			args := distexchange.RegisterPodArgs{
				OwnerWebID: fmt.Sprintf("https://flood%d-%d.example/profile#me", k, nonce),
				Location:   fmt.Sprintf("https://flood%d-%d.example/", k, nonce),
			}
			tx, err := chain.NewTxPriced(key, nonce, w.d.DEAddr, "registerPod", args, distexchange.DefaultGasLimit, 1)
			if err != nil {
				return "err", expectation("build flood tx: %v", err)
			}
			batch = append(batch, tx)
		}
		for _, v := range w.d.Network.Submit(batch) {
			if v.Admitted() {
				admitted++
			} else {
				rejected++
			}
		}
	}
	if rejected == 0 {
		return "unbounded", expectation("10x-capacity flood fully admitted: admission is unbounded")
	}
	if pending := w.d.Network.PendingTxs(); pending > floodPoolCap {
		return "overflow", expectation("pool holds %d txs after flood, capacity %d", pending, floodPoolCap)
	}

	// The starvation probe: an honest settlement at the default gas
	// price must displace cheap flood traffic and commit promptly.
	probe, err := w.dupTx("floodprobe")
	if err != nil {
		return "err", expectation("build probe tx: %v", err)
	}
	if vs := w.d.Network.Submit([]*chain.Tx{probe}); !vs[0].Admitted() {
		return "starved", expectation("adequately-priced settlement rejected mid-flood: %v", vs[0].Err)
	}
	w.dupNonce++
	probeHash := probe.Hash()
	blocks := 0
	for k := 1; k <= floodBlocksBound && blocks == 0; k++ {
		b, err := w.d.SealBlock()
		if err != nil {
			return "err", expectation("seal mid-flood: %v", err)
		}
		for _, tx := range b.Txs {
			if tx.Hash() == probeHash {
				blocks = k
				break
			}
		}
	}
	w.floodEpisodes = append(w.floodEpisodes, floodEpisode{step: r.idx, blocks: blocks, bound: floodBlocksBound})

	// Drain the admitted cheap backlog so the world settles (a block
	// holds far more than the pool capacity, so a couple of seals do).
	for range 8 {
		if w.d.Network.PendingTxs() == 0 {
			break
		}
		if _, err := w.d.SealBlock(); err != nil {
			return "err", expectation("seal draining flood backlog: %v", err)
		}
	}
	return fmt.Sprintf("tx-flood-contained admitted=%d rejected=%d blocks=%d", admitted, rejected, blocks), nil
}

// dupTx builds the next registerPod transaction of the synthetic fault
// sender.
func (w *World) dupTx(tag string) (*chain.Tx, error) {
	args := distexchange.RegisterPodArgs{
		OwnerWebID: fmt.Sprintf("https://%s-%d.example/profile#me", tag, w.dupNonce),
		Location:   fmt.Sprintf("https://%s-%d.example/", tag, w.dupNonce),
	}
	return chain.NewTx(w.dupKey, w.dupNonce, w.d.DEAddr, "registerPod", args, distexchange.DefaultGasLimit)
}

// quiesceChain waits (wall-clock bounded) for in-flight block broadcasts
// to land on every live node. The pull-in oracle submits evidence from
// its own goroutine, and a round's closure becomes visible on the
// receipt node before the sealing broadcast has applied the block to the
// remaining validators — so a step can return while one validator is a
// block behind for a few microseconds. Invariants must only judge the
// settled state. The spin uses the wall clock and leaves no mark on the
// trace.
func (w *World) quiesceChain() {
	//repolint:ignore determinism wall-clock settle spin; bounds real goroutines and leaves no mark on the trace
	deadline := time.Now().Add(5 * time.Second)
	//repolint:ignore determinism wall-clock settle spin; bounds real goroutines and leaves no mark on the trace
	for !w.chainSettled() && time.Now().Before(deadline) {
		//repolint:ignore determinism wall-clock settle spin; bounds real goroutines and leaves no mark on the trace
		time.Sleep(200 * time.Microsecond)
	}
}

// chainSettled reports whether every live, reachable validator agrees on
// the head and no mempool holds queued transactions.
func (w *World) chainSettled() bool {
	_, other := w.splitHead()
	return other < 0 && w.d.Network.PendingTxs() == 0
}

// splitHead compares the heads of the live, reachable validators:
// partitioned minority validators are left out, since they lag by design
// until the heal. It returns the first of them and one whose head
// differs from that one's; other is -1 when they all agree.
func (w *World) splitHead() (ref, other int) {
	ref = -1
	var refHash cryptoutil.Hash
	for i, n := range w.d.Nodes {
		if n == nil || w.d.ValidatorDown(i) || w.d.ValidatorPartitioned(i) {
			continue
		}
		if h := n.Head().Hash(); ref < 0 {
			ref, refHash = i, h
		} else if h != refHash {
			return ref, i
		}
	}
	return ref, -1
}

// liveHeight reads the live cluster's chain height.
func (w *World) liveHeight() uint64 {
	if n := w.d.LiveNode(); n != nil {
		return n.Height()
	}
	return 0
}

// droppingTransport performs the request (the server observes it) but
// loses the response — the "response dropped on the wire" fault.
type droppingTransport struct{}

func (droppingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		resp.Body.Close()
	}
	return nil, fmt.Errorf("scenario: injected network drop")
}
