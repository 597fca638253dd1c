package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/store"
	"repro/internal/tee"
)

// SealingMode selects how blocks are produced.
type SealingMode int

const (
	// SealOnSubmit seals a block immediately after every transaction
	// submission (zero-latency "instaseal", the default for tests).
	SealOnSubmit SealingMode = iota
	// SealManually leaves block production to explicit SealBlock calls.
	SealManually
)

// Config parameterizes a deployment.
type Config struct {
	// Validators is the number of authority nodes (default 1).
	Validators int
	// Sealing selects the block production mode.
	Sealing SealingMode
	// Genesis is the simulated start time (defaults to 2023-10-09).
	Genesis time.Time
	// OracleFanout enables concurrent evidence collection in the pull-in
	// oracle.
	OracleFanout bool
	// MonitoringGrace is how long Owner.Monitor waits for all targets to
	// report before closing the round and flagging silent devices as
	// unresponsive (default 2s of wall-clock time).
	MonitoringGrace time.Duration
	// RequireAttestation makes pod managers demand a TEE attestation
	// quote (bound to the request and pinned to the trusted-application
	// measurement) on every consumer access to a published resource,
	// enforcing the paper's rule that client requests are generated by
	// trusted applications.
	RequireAttestation bool
	// ExecWorkers bounds each node's parallel transaction scheduler for
	// block sealing and validation (0 = GOMAXPROCS, 1 = the exact serial
	// legacy path). Every setting produces bit-identical blocks.
	ExecWorkers int
	// MempoolCapacity bounds every validator's transaction pool (0 = the
	// chain default, 8192). Beyond it, admission evicts cheaper
	// speculative tails or answers backpressure (see chain.ErrPoolFull).
	MempoolCapacity int
	// SenderQuota caps one sender's pending transactions per validator
	// (0 = the chain default, 1024).
	SenderQuota int
	// DataDir, when non-empty, makes every validator durable: each node
	// keeps a write-ahead log and state snapshots (taken by the chain's
	// recovery-cost rule; there is no cadence to set) under
	// DataDir/node-<i>/, enabling the CrashValidator /
	// RestartValidatorFromDisk fault hooks. Empty (the default) keeps the
	// historical all-in-memory deployment.
	DataDir string
	// WALSync is the validators' WAL fsync policy (default
	// store.SyncInterval). Ignored without DataDir.
	WALSync store.SyncPolicy
	// Obs, when non-nil, wires the deployment's hot paths — validator 0's
	// chain (mempool, sealing, parallel execution, receipts, and its WAL
	// when DataDir is set), the multi-pod host, the pull-in oracle and the
	// pod managers' monitoring collection — into the registry for /metrics
	// scraping. Nil (the default) keeps every instrument on the no-op path.
	Obs *obs.Registry
}

// TrustedAppIdentity is the trusted application whose measurement pod
// managers pin when attestation is required.
const TrustedAppIdentity = "usage-control-app-v1"

// Deployment is a running instance of the architecture.
type Deployment struct {
	// Cluster is the validator network (Nodes, Network, DEAddr), booted by
	// the same NewCluster the de-node binary runs.
	*Cluster
	Clock        *simclock.Sim
	Market       *market.Service
	Manufacturer *tee.Manufacturer
	Directory    *solid.MapDirectory
	Metrics      *oracle.Metrics
	// Host serves every owner's pod behind one HTTP server (the paper's
	// multi-tenant deployment shape): owner pods mount at /pods/{name}/.
	Host *solid.Host

	pullIn     *oracle.PullIn
	pushOut    *oracle.PushOut
	hostServer *httptest.Server

	// addrs are the validators' authority addresses, index-aligned with
	// Nodes.
	addrs []cryptoutil.Address

	mu        sync.Mutex
	owners    map[solid.WebID]*Owner
	consumers map[solid.WebID]*Consumer
	sealing   SealingMode
	obs       *obs.Registry // nil when the deployment is not observed
	grace     time.Duration
	attest    bool
	// equivGuardOff mirrors SetEquivocationGuard(false) so the setting
	// survives crash-restarts (a reopened node starts with the guard on
	// and must have the sabotage reapplied). Fault injection only.
	equivGuardOff bool
}

// defaultGenesis is the simulated epoch (the paper's submission week).
var defaultGenesis = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

// NewDeployment boots the architecture.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.Validators <= 0 {
		cfg.Validators = 1
	}
	if cfg.Genesis.IsZero() {
		cfg.Genesis = defaultGenesis
	}
	clk := simclock.NewSim(cfg.Genesis)

	manufacturer, err := tee.NewManufacturer("tee-manufacturer")
	if err != nil {
		return nil, err
	}
	cluster, err := NewCluster(cfg, clk, manufacturer.CAPublicBytes())
	if err != nil {
		return nil, err
	}
	mkt, err := market.NewService("datamarket", clk)
	if err != nil {
		return nil, errors.Join(err, cluster.Close())
	}

	if cfg.MonitoringGrace <= 0 {
		cfg.MonitoringGrace = 2 * time.Second
	}
	d := &Deployment{
		Cluster:      cluster,
		Clock:        clk,
		Market:       mkt,
		Manufacturer: manufacturer,
		Directory:    solid.NewMapDirectory(),
		Metrics:      oracle.NewMetrics(cfg.Obs),
		obs:          cfg.Obs,
		addrs:        cluster.Configs[0].Authorities,
		owners:       make(map[solid.WebID]*Owner),
		consumers:    make(map[solid.WebID]*Consumer),
		sealing:      cfg.Sealing,
		grace:        cfg.MonitoringGrace,
		attest:       cfg.RequireAttestation,
	}
	d.Host = solid.NewHost(d.Directory, clk)
	if cfg.Obs != nil {
		d.Host.SetMetrics(solid.NewMetrics(cfg.Obs))
	}
	d.hostServer = httptest.NewServer(d.Host)

	// The pull-in oracle answers monitoring requests with evidence from
	// registered consumer devices; the push-out oracle dispatches policy
	// updates to them. Both observe node 0.
	relayKey := cryptoutil.MustGenerateKey()
	relayClient := distexchange.NewClient(d.backend(), relayKey, d.DEAddr)
	d.pullIn = oracle.NewPullIn(d.Nodes[0], relayClient, d.Metrics)
	d.pullIn.Fanout = cfg.OracleFanout
	d.pullIn.Start(d.DEAddr)
	d.pushOut = oracle.NewPushOut(d.Nodes[0], d.Metrics)
	return d, nil
}

// Close shuts down servers and oracles, and flushes and closes every
// durable validator store (a no-op for in-memory deployments).
func (d *Deployment) Close() {
	d.pullIn.Close()
	d.pushOut.Close()
	d.hostServer.Close()
	_ = d.Cluster.Close()
}

// backend returns the deployment's submission backend: one value, shared
// by every client.
func (d *Deployment) backend() networkBackend { return networkBackend{d} }

// networkBackend submits transactions to every live node and (in
// SealOnSubmit mode) immediately drives network consensus on them. It
// holds no lock of its own: a Client serializes its sender's nonce
// sequence, Network.SealNext serializes rounds, and signature
// verification runs concurrently across clients.
type networkBackend struct{ d *Deployment }

// The backend's backoff on backpressure: at most retryAttempts tries in
// all, retry n waiting retryBase·2ⁿ capped at retryCap, jittered ±50 %.
const (
	retryAttempts = 4
	retryBase     = 10 * time.Millisecond
	retryCap      = time.Second
)

// retryDelay is the pause before retry number attempt (0-based). The
// jitter, in [0.5d, 1.5d) and capped again, de-synchronizes clients that
// the same full pool pushed back.
func retryDelay(attempt int) time.Duration {
	d := min(retryBase<<attempt, retryCap)
	return min(d/2+time.Duration(rand.Int63n(int64(d))), retryCap)
}

// Submit hands the transactions to the cluster and resubmits the ones it
// backpressured (pool full, quota exceeded), up to retryAttempts tries. In
// SealOnSubmit mode a retry is preceded by sealing a block — the
// deployment is its own drain — so no wall-clock wait is needed, and the
// call ends by sealing what it admitted; otherwise the backend backs off
// and lets whoever drives sealing catch up.
func (b networkBackend) Submit(txs []*chain.Tx) []chain.TxVerdict {
	net := b.d.Network
	out := net.Submit(txs)
	for attempt := 0; attempt < retryAttempts-1; attempt++ {
		var again []*chain.Tx
		var at []int
		for i, v := range out {
			if chain.IsBackpressure(v.Err) {
				again, at = append(again, txs[i]), append(at, i)
			}
		}
		if len(again) == 0 {
			break
		}
		if b.d.sealing != SealOnSubmit {
			time.Sleep(retryDelay(attempt))
		} else if _, err := net.SealNext(); err != nil {
			break
		}
		for j, v := range net.Submit(again) {
			out[at[j]] = v
		}
	}
	for i := range out {
		if out[i].Err == nil {
			out[i].Err = b.seal(out[i].Hash)
		}
	}
	return out
}

// seal drives consensus, in SealOnSubmit mode, until the admitted
// transaction is committed (a batch may span several blocks) or no live
// mempool holds anything more to seal. It seals for this transaction
// only: draining until every mempool is empty would race concurrent
// clients into sealing each other's transactions and empty blocks.
func (b networkBackend) seal(tx cryptoutil.Hash) error {
	if b.d.sealing != SealOnSubmit {
		return nil
	}
	for b.liveNode().Receipt(tx) == nil && b.d.Network.PendingTxs() > 0 {
		if _, err := b.d.Network.SealNext(); err != nil {
			return err
		}
	}
	return nil
}

// liveNode picks a node whose ledger is advancing. A failed node's chain
// is frozen until recovery, so waiting for a receipt or reading a nonce
// there would hang or return stale data while the rest of the cluster
// moves on. Falls back to node 0 when the whole cluster is down (the
// caller's context governs how long it waits).
func (b networkBackend) liveNode() *chain.Node {
	if n := b.d.Network.LiveNode(); n != nil {
		return n
	}
	return b.d.Nodes[0]
}

func (b networkBackend) WaitForReceipt(ctx context.Context, h cryptoutil.Hash) (*chain.Receipt, error) {
	return b.liveNode().WaitForReceipt(ctx, h)
}

func (b networkBackend) Query(c cryptoutil.Address, method string, args []byte) ([]byte, error) {
	return b.liveNode().Query(c, method, args)
}

func (b networkBackend) NonceFor(a cryptoutil.Address) uint64 {
	return b.liveNode().NonceFor(a)
}

// SealBlock drives one consensus round (for SealManually deployments).
func (d *Deployment) SealBlock() (*chain.Block, error) {
	return d.Network.SealNext()
}

// SubmitBatch broadcasts pre-signed transactions to the cluster as one
// all-or-nothing batch (chain.Network.SubmitAllOrNothing: one
// signature-verification pass, one mempool lock acquisition per node) and,
// in SealOnSubmit mode, drives consensus until the batch is committed.
// Backpressure is answered, not retried: a refused batch leaves nothing
// queued and the caller decides when to come back.
func (d *Deployment) SubmitBatch(txs []*chain.Tx) ([]cryptoutil.Hash, error) {
	hashes, err := d.Network.SubmitAllOrNothing(txs)
	for i := 0; err == nil && i < len(hashes); i++ {
		err = d.backend().seal(hashes[i])
	}
	return hashes, err
}

// PushInOracle returns a fresh push-in oracle view over the deployment's
// chain, with traffic counted in Metrics.
func (d *Deployment) PushInOracle() *oracle.PushIn {
	return oracle.NewPushIn(d.backend(), d.Metrics)
}

// PullOutOracle returns the pull-out oracle view.
func (d *Deployment) PullOutOracle() *oracle.PullOut {
	return oracle.NewPullOut(d.backend(), d.Metrics)
}

// PullIn exposes the deployment's pull-in oracle (for fan-out tweaks and
// waiting in tests).
func (d *Deployment) PullIn() *oracle.PullIn { return d.pullIn }

// --- owners ---

// Owner is a data owner: a pod + pod manager mounted on the deployment's
// shared multi-pod host + market account, the "Alice" side of the
// architecture.
type Owner struct {
	WebID   solid.WebID
	Key     *cryptoutil.KeyPair
	Manager *podmanager.Manager

	d       *Deployment
	baseURL string
}

// NewOwner provisions a data owner: key pair, WebID, registered pod
// manager mounted at /pods/{name}/ on the deployment's shared host, and
// a market account.
func (d *Deployment) NewOwner(name string) (*Owner, error) {
	key := cryptoutil.MustGenerateKey()

	baseURL := d.hostServer.URL + solid.PodRoutePrefix + name
	webID := solid.WebID(baseURL + "/profile#" + name)

	var teeReq *podmanager.TEERequirement
	if d.attest {
		m := tee.MeasurementOf(TrustedAppIdentity)
		teeReq = &podmanager.TEERequirement{
			CAKey:       d.Manufacturer.CAPublicBytes(),
			Measurement: &m,
		}
	}
	mgr, err := podmanager.New(podmanager.Config{
		OwnerWebID: webID,
		BaseURL:    baseURL,
		Key:        key,
		Backend:    d.backend(),
		DEAddr:     d.DEAddr,
		Market:     market.VerifierFor(d.Market),
		Directory:  d.Directory,
		Clock:      d.Clock,
		TEE:        teeReq,
		PushOut:    d.pushOut,
	})
	if err != nil {
		return nil, err
	}
	mgr.Instrument(d.obs)
	if err := d.Host.Mount(name, mgr.Pod(), mgr.Handler()); err != nil {
		return nil, err
	}

	// Publish the owner's WebID profile (publicly readable), so peers can
	// authenticate this agent by dereferencing the WebID instead of
	// relying on the in-memory directory.
	if err := mgr.Pod().Put(webID, "/profile", "text/turtle",
		[]byte(solid.ProfileTurtle(webID, key.PublicBytes())), d.Clock.Now()); err != nil {
		d.Host.Remove(name)
		return nil, err
	}
	profileACL := solid.NewACL(webID, "/profile")
	profileACL.GrantPublic("public-profile", "/profile", false, solid.ModeRead)
	if err := mgr.Pod().SetACL(webID, "/profile", profileACL); err != nil {
		d.Host.Remove(name)
		return nil, err
	}

	if err := d.Market.Register(string(webID), name+"@example.org", key.Address(), key.PublicBytes()); err != nil {
		d.Host.Remove(name)
		return nil, err
	}
	// Register the key last: a refused duplicate must not replace the
	// existing agent's key.
	d.Directory.Register(webID, key.PublicBytes())

	o := &Owner{WebID: webID, Key: key, Manager: mgr, d: d, baseURL: baseURL}
	d.mu.Lock()
	d.owners[webID] = o
	d.mu.Unlock()
	return o, nil
}

// URL returns the owner's pod base URL (on the shared host).
func (o *Owner) URL() string { return o.baseURL }

// InitializePod runs the Fig. 2(1) pod initiation process.
func (o *Owner) InitializePod(ctx context.Context, defaultPolicy *policy.Policy) error {
	return o.Manager.RegisterPod(ctx, defaultPolicy)
}

// AddResource uploads data into the pod (Solid protocol precondition of
// Fig. 2(2)).
func (o *Owner) AddResource(path, contentType string, data []byte) error {
	return o.Manager.Upload(path, contentType, data)
}

// Publish runs the Fig. 2(2) resource initiation process and returns the
// resource IRI.
func (o *Owner) Publish(ctx context.Context, path, description string, pol *policy.Policy) (string, error) {
	if err := o.Manager.Publish(ctx, o.WebID, path, description, pol); err != nil {
		return "", err
	}
	iri := o.Manager.ResourceIRI(path)
	// Attribute the resource to the owner for the market's §V-4
	// access-proportional remuneration.
	o.d.Market.SetResourceOwner(iri, string(o.WebID))
	return iri, nil
}

// Unpublish withdraws a resource from the market (no new grants, no
// indexing); existing holders keep their policy-governed copies and stay
// monitorable.
func (o *Owner) Unpublish(ctx context.Context, path string) error {
	return o.Manager.Unpublish(ctx, o.WebID, path)
}

// NewPolicy builds a policy bound to one of this owner's resources.
func (o *Owner) NewPolicy(path string) *policy.Policy {
	return policy.New(o.Manager.ResourceIRI(path), string(o.WebID), o.d.Clock.Now())
}

// Grant authorizes a consumer for a resource (ACL grant + on-chain grant
// record), the owner-side precondition of Fig. 2(4).
func (o *Owner) Grant(ctx context.Context, c *Consumer, path string, purpose policy.Purpose) error {
	return o.Manager.GrantAccess(ctx, c.WebID, c.Key.Address(), c.Device.Address(), path, purpose)
}

// ModifyPolicy runs the Fig. 2(5) policy modification process.
func (o *Owner) ModifyPolicy(ctx context.Context, path string, newPol *policy.Policy) error {
	return o.Manager.ModifyPolicy(ctx, o.WebID, path, newPol)
}

// Monitor runs the Fig. 2(6) policy monitoring process: it triggers a
// round, waits for the pull-in oracle to gather evidence, and returns the
// recorded evidence and violations.
func (o *Owner) Monitor(ctx context.Context, path string) ([]distexchange.EvidenceRecord, []distexchange.Violation, error) {
	round, err := o.Manager.StartMonitoring(ctx, path)
	if err != nil {
		return nil, nil, err
	}
	if len(round.Targets) > 0 {
		// Wait for the oracle-driven evidence submissions to land.
		if _, err := o.Manager.WaitForRoundClosure(path, round.Round, o.d.grace); err != nil {
			return nil, nil, err
		}
	}
	return o.Manager.CollectMonitoring(ctx, path, round.Round)
}

// --- consumers ---

// Consumer is a data consumer: a WebID + market account + TEE device with
// a trusted application, the "Bob" side of the architecture.
type Consumer struct {
	WebID  solid.WebID
	Key    *cryptoutil.KeyPair
	Device *tee.Device
	App    *tee.App
	DE     *distexchange.Client

	d    *Deployment
	http *solid.Client
}

// appSource adapts a tee.App to the pull-in oracle's EvidenceSource.
type appSource struct{ app *tee.App }

func (s appSource) Address() cryptoutil.Address { return s.app.Device().Address() }
func (s appSource) Evidence(iri string, round uint64) (distexchange.SignedEvidence, error) {
	return s.app.Evidence(iri, round)
}

// NewConsumer provisions a consumer: WebID key, attested TEE device
// running a trusted application with the declared purpose, market
// registration + subscription, on-chain device registration, policy-update
// subscription, and pull-in source registration.
func (d *Deployment) NewConsumer(name string, purpose policy.Purpose) (*Consumer, error) {
	ctx := context.Background()
	key := cryptoutil.MustGenerateKey()
	webID := solid.WebID("https://" + name + ".example/profile#me")

	now := d.Clock.Now()
	device, err := d.Manufacturer.Provision(tee.MeasurementOf(TrustedAppIdentity), now, now.Add(10*365*24*time.Hour))
	if err != nil {
		return nil, err
	}
	app := tee.NewApp(device, purpose, d.Clock)

	if err := d.Market.Register(string(webID), name+"@example.org", key.Address(), key.PublicBytes()); err != nil {
		return nil, err
	}
	if err := d.Market.Subscribe(string(webID), market.PlanBasic); err != nil {
		return nil, err
	}

	// The device registers itself on-chain with its attestation
	// certificate (through the push-in oracle).
	deviceClient := distexchange.NewClient(d.backend(), device.Key(), d.DEAddr)
	if _, err := deviceClient.RegisterDevice(ctx, device.CertificateBytes()); err != nil {
		return nil, err
	}
	// Register the key last, as in NewOwner.
	d.Directory.Register(webID, key.PublicBytes())

	c := &Consumer{
		WebID:  webID,
		Key:    key,
		Device: device,
		App:    app,
		DE:     deviceClient,
		d:      d,
		http:   solid.NewClient(webID, key, d.Clock),
	}

	// Push-out oracle: policy updates reach the trusted application.
	d.pushOut.On(chain.EventFilter{Contract: d.DEAddr, Topic: distexchange.TopicPolicyUpdated}, func(ev chain.Event) {
		pol, err := distexchange.DecodePolicy(ev.Data)
		if err != nil {
			log.Printf("core: bad policy update event: %v", err)
			return
		}
		if _, err := app.ApplyPolicyUpdate(&pol); err != nil && !errors.Is(err, tee.ErrNoCopy) {
			log.Printf("core: apply policy update: %v", err)
		}
	})

	// Pull-in oracle: the device answers monitoring requests.
	d.pullIn.RegisterSource(appSource{app: app})

	d.mu.Lock()
	d.consumers[webID] = c
	d.mu.Unlock()
	return c, nil
}

// Index runs the Fig. 2(3) resource indexing process: the trusted
// application reads the resource's location and policy from the DE App
// via the pull-out oracle.
func (c *Consumer) Index(resourceIRI string) (distexchange.ResourceRecord, error) {
	pullOut := c.d.PullOutOracle()
	args := distexchange.GetResourceArgs{ResourceIRI: resourceIRI}.AppendArgs(nil)
	reply, err := pullOut.Query(c.d.DEAddr, "getResource", args)
	if err != nil {
		return distexchange.ResourceRecord{}, err
	}
	return distexchange.DecodeResourceRecord(reply)
}

// Access runs the Fig. 2(4) resource access process end to end: pay the
// market fee, fetch the resource from the owner's pod over HTTP with the
// payment certificate, store the copy in the TEE under the indexed
// policy, and confirm retrieval on-chain.
func (c *Consumer) Access(ctx context.Context, resourceIRI string) error {
	record, err := c.Index(resourceIRI)
	if err != nil {
		return fmt.Errorf("core: index %s: %w", resourceIRI, err)
	}
	cert, err := c.d.Market.PayFee(string(c.WebID), resourceIRI)
	if err != nil {
		return fmt.Errorf("core: pay fee: %w", err)
	}
	decorate, err := podmanager.AttachCertificate(cert)
	if err != nil {
		return err
	}
	// Attach the attestation quote too: the trusted application proves it
	// generates this request (required when the deployment pins TEEs,
	// harmless otherwise).
	c.http.Decorate = podmanager.Decorators(decorate, podmanager.AttachTEEQuote(c.Device))
	data, _, err := c.http.Get(record.Location)
	if err != nil {
		return fmt.Errorf("core: fetch %s: %w", record.Location, err)
	}
	if err := c.App.StoreResource(resourceIRI, data, record.Policy); err != nil {
		return err
	}
	if _, err := c.DE.ConfirmRetrieval(ctx, resourceIRI); err != nil {
		return err
	}
	return nil
}

// Use performs a policy-checked use of a held copy inside the TEE.
func (c *Consumer) Use(resourceIRI string, action policy.Action) ([]byte, error) {
	return c.App.Use(resourceIRI, action)
}

// WaitPolicyVersion blocks until the trusted application enforces at
// least the given policy version (push-out delivery is asynchronous). The
// app signals each version it applies; the timeout is the only timer.
func (c *Consumer) WaitPolicyVersion(resourceIRI string, version uint64, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := c.App.WaitPolicyVersion(ctx, resourceIRI, version); err != nil {
		return fmt.Errorf("core: policy v%d not applied to %s within %s", version, resourceIRI, timeout)
	}
	return nil
}
