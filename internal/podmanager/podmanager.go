// Package podmanager implements the Pod Manager of the architecture: the
// web application through which users retrieve, modify and control data
// stored in a Solid pod. It checks access against locally stored ACLs
// (package solid), demands market payment certificates on published
// resources, and bridges to the blockchain DE App through its Blockchain
// Interaction Module (a distexchange.Client running over the push-in /
// pull-out oracle components).
package podmanager

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/rdf"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/tee"
)

// HeaderMarketCertificate carries the payment certificate on
// resource-access requests (Fig. 2(4)): its encoding
// (cryptoutil.Certificate.Encode), base64.
const HeaderMarketCertificate = "X-Market-Certificate"

// HeaderTEEQuote carries an attestation quote proving the request
// originates from a trusted application: its encoding (tee.Quote.Encode),
// base64. The quote's nonce must equal the request's X-Signature header,
// the agent's signature over method, path, date and request nonce. That
// binds the quote to this one request of this one agent, and it inherits
// the server's freshness window and replay guard. This realizes the
// paper's rule that "Solid client requests are generated by Trusted
// Applications" (Section III-C).
const HeaderTEEQuote = "X-TEE-Quote"

// TEERequirement pins the attestation root a pod manager accepts for
// consumer requests on published resources. A nil requirement disables
// attestation checking.
type TEERequirement struct {
	// CAKey pins the TEE manufacturer certificate authority's public key.
	CAKey []byte
	// Measurement, when non-nil, additionally pins the trusted
	// application's code measurement.
	Measurement *tee.Measurement
}

// Config wires a Manager.
type Config struct {
	// OwnerWebID is the pod owner.
	OwnerWebID solid.WebID
	// BaseURL is the pod's public base URL (no trailing slash).
	BaseURL string
	// Key is the manager's blockchain identity (the pod owner's
	// credentials for signing transactions, per Section III-D).
	Key *cryptoutil.KeyPair
	// Backend reaches the chain (typically an oracle.PushIn).
	Backend distexchange.Backend
	// DEAddr is the DE App contract address.
	DEAddr cryptoutil.Address
	// Market verifies payment certificates.
	Market market.Verifier
	// Directory resolves agent WebIDs to keys for HTTP authentication.
	Directory solid.AgentDirectory
	// Clock supplies time (real clock if nil).
	Clock simclock.Clock
	// TEE, when non-nil, requires consumer requests on published
	// resources to carry a valid attestation quote (HeaderTEEQuote).
	TEE *TEERequirement
	// PushOut delivers DE App events to the manager: it is what wakes
	// WaitForRoundClosure when evidence lands. Without one that wait
	// learns of nothing before its deadline.
	PushOut *oracle.PushOut
}

// Manager is a running pod manager.
type Manager struct {
	owner   solid.WebID
	baseURL string
	pod     *solid.Pod
	server  *solid.Server
	de      *distexchange.Client
	deAddr  cryptoutil.Address
	pushOut *oracle.PushOut
	market  market.Verifier
	dir     solid.AgentDirectory
	clock   simclock.Clock
	tee     *TEERequirement

	// collectLatency times CollectMonitoring; nil (a no-op) until Instrument.
	collectLatency *obs.Histogram

	// listed holds the IRIs whose registration this manager saw the DE App
	// accept and whose withdrawal it has not seen: the resources its access
	// hook guards, known without a ledger read on every GET. GrantAccess
	// opens an ACL only on these. The DE App judges every owner request
	// itself.
	mu     sync.Mutex
	listed map[string]bool
}

// Manager errors.
var (
	ErrCertificate  = errors.New("podmanager: payment certificate rejected")
	ErrOwnerOnly    = errors.New("podmanager: owner-only operation")
	ErrMissingInPod = errors.New("podmanager: resource not present in pod")
	// ErrUnguarded refuses a grant on a resource whose registration this
	// manager has not seen accepted, or has seen withdrawn.
	ErrUnguarded = errors.New("podmanager: access hook does not guard the resource")
)

// New creates a Manager with a fresh pod.
func New(cfg Config) (*Manager, error) {
	if cfg.Key == nil || cfg.Backend == nil {
		return nil, errors.New("podmanager: missing key or backend")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.Real{}
	}
	m := &Manager{
		owner:   cfg.OwnerWebID,
		baseURL: cfg.BaseURL,
		pod:     solid.NewPod(cfg.OwnerWebID, cfg.BaseURL),
		de:      distexchange.NewClient(cfg.Backend, cfg.Key, cfg.DEAddr),
		deAddr:  cfg.DEAddr,
		pushOut: cfg.PushOut,
		market:  cfg.Market,
		dir:     cfg.Directory,
		clock:   clk,
		tee:     cfg.TEE,
		listed:  make(map[string]bool),
	}
	m.server = solid.NewServer(m.pod, cfg.Directory, clk, m.accessHook)
	return m, nil
}

// Instrument registers the manager's series on reg. Call it before the
// manager serves requests.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.collectLatency = reg.Histogram("podmanager_collect_monitoring_ns",
		"CollectMonitoring latency: round state, closing report if open, round-scoped evidence and violations")
}

// Pod returns the managed pod.
func (m *Manager) Pod() *solid.Pod { return m.pod }

// DE exposes the manager's DE App client.
func (m *Manager) DE() *distexchange.Client { return m.de }

// Server returns the pod's server, with the manager's access hook.
func (m *Manager) Server() *solid.Server { return m.server }

// ResourceIRI maps a pod path to its public IRI.
func (m *Manager) ResourceIRI(path string) string { return m.baseURL + path }

// PolicyPath is the pod path of the policy document of the resource at path.
func PolicyPath(path string) string { return path + ".policy" }

// PolicyDocument is the Turtle form of pol that a pod stores at PolicyPath.
func PolicyDocument(pol *policy.Policy) []byte {
	return []byte(rdf.SerializeTurtle(pol.ToGraph(), map[string]string{"uc": policy.UC}))
}

// putPolicy stores the policy document of a policy the DE App has accepted
// next to its resource, as owner-readable linked data.
func (m *Manager) putPolicy(path string, pol *policy.Policy) error {
	return m.pod.Put(m.owner, PolicyPath(path), "text/turtle", PolicyDocument(pol), m.clock.Now())
}

// RegisterPod performs the on-chain half of pod initiation (Fig. 2(1)):
// the pod is set up with a default policy and its web reference is pushed
// to the DE App via the push-in oracle.
func (m *Manager) RegisterPod(ctx context.Context, defaultPolicy *policy.Policy) error {
	_, err := m.de.RegisterPod(ctx, distexchange.RegisterPodArgs{
		OwnerWebID:    string(m.owner),
		Location:      m.baseURL + "/",
		DefaultPolicy: defaultPolicy,
	})
	return err
}

// Upload stores a resource into the pod on behalf of the owner (the
// "already uploaded via the Solid protocol" precondition of Fig. 2(2)).
func (m *Manager) Upload(path, contentType string, data []byte) error {
	return m.pod.Put(m.owner, path, contentType, data, m.clock.Now())
}

// Publish performs resource initiation (Fig. 2(2)): after checking the
// owner's permission on the local ACL, it forwards the metadata to the DE
// App, and only once the DE App has registered the resource does it store
// the policy next to it as Turtle. A refused registration leaves the pod
// as it was.
func (m *Manager) Publish(ctx context.Context, agent solid.WebID, path, description string, pol *policy.Policy) error {
	// The Pod Manager "first checks that Alice is permitted to perform
	// this action" — publication requires Control on the resource — and
	// that the resource is in the pod.
	if err := m.pod.Exists(agent, path, solid.ModeControl); err != nil {
		if agent != m.owner && !errors.Is(err, solid.ErrNotFound) {
			return fmt.Errorf("%w: %v", ErrOwnerOnly, err)
		}
		return fmt.Errorf("%w: %v", ErrMissingInPod, err)
	}
	iri := m.ResourceIRI(path)
	if pol == nil {
		// An unconstrained resource policy. The manager always sends one,
		// so the pod's default policy never reaches a resource published
		// through it.
		pol = policy.New(iri, string(m.owner), m.clock.Now())
	}
	if _, err := m.de.RegisterResource(ctx, distexchange.RegisterResourceArgs{
		ResourceIRI: iri,
		PodWebID:    string(m.owner),
		Location:    iri,
		Description: description,
		Policy:      pol,
	}); err != nil {
		return err
	}
	m.mu.Lock()
	m.listed[iri] = true
	m.mu.Unlock()
	return m.putPolicy(path, pol)
}

// Unpublish withdraws a resource from the market: the DE App stops
// indexing it and refuses new grants; the pod copy and existing holders'
// copies (still policy-governed) are untouched. The market hook stops
// demanding certificates, so plain WAC applies again to pod access.
func (m *Manager) Unpublish(ctx context.Context, agent solid.WebID, path string) error {
	if agent != m.owner {
		if err := m.pod.Authorize(agent, path, solid.ModeControl); err != nil {
			return fmt.Errorf("%w: %v", ErrOwnerOnly, err)
		}
	}
	iri := m.ResourceIRI(path)
	if _, err := m.de.WithdrawResource(ctx, iri); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.listed, iri)
	m.mu.Unlock()
	return nil
}

// GrantAccess authorizes a consumer: it records the grant (consumer,
// device, purpose) on-chain so the DE App can monitor the copy, and only
// then adds an ACL read grant on the pod resource. It first refuses a
// resource its access hook does not guard: the ACL grant would let the
// consumer read it under plain WAC, with no certificate or attestation
// asked. Whether the hook guards a resource is a fact of this pod, not of
// the ledger. A grant the DE App refuses — a purpose the policy forbids,
// say — opens no pod access either, so no copy can be fetched that no
// monitoring round would ever audit. The other way round is harmless: a
// device is a round's target only once it has confirmed a retrieval.
func (m *Manager) GrantAccess(ctx context.Context, consumer solid.WebID, consumerAddr, deviceAddr cryptoutil.Address, path string, purpose policy.Purpose) error {
	iri := m.ResourceIRI(path)
	m.mu.Lock()
	listed := m.listed[iri]
	m.mu.Unlock()
	if !listed {
		return fmt.Errorf("%w: %s", ErrUnguarded, iri)
	}
	if _, err := m.de.RecordGrant(ctx, distexchange.RecordGrantArgs{
		ResourceIRI: iri,
		Consumer:    consumerAddr,
		Device:      deviceAddr,
		Purpose:     purpose,
	}); err != nil {
		return err
	}
	// Merge with the ACL already governing the resource: a new grant adds
	// the consumer, it must never clobber earlier consumers' access (two
	// buyers of the same resource hold read access simultaneously). The
	// read-modify-write runs under m.mu so concurrent grants serialize —
	// the pod's own locks only cover the individual GetACL/SetACL calls.
	m.mu.Lock()
	defer m.mu.Unlock()
	acl := solid.NewACL(m.owner, path)
	if existing, err := m.pod.GetACL(m.owner, path); err == nil {
		acl = &solid.ACL{Authorizations: append([]solid.Authorization(nil), existing.Authorizations...)}
	} else if !errors.Is(err, solid.ErrNoACL) {
		return err
	}
	grantID := "consumer-" + string(consumer)
	for _, auth := range acl.Authorizations {
		if auth.ID == grantID {
			return nil // grant already present; idempotent
		}
	}
	acl.Grant(grantID, []solid.WebID{consumer}, path, false, solid.ModeRead)
	return m.pod.SetACL(m.owner, path, acl)
}

// ModifyPolicy performs policy modification (Fig. 2(5)): permission check,
// then push-in to the DE App, which judges the new version and notifies
// copy holders via the push-out oracle. The ledger is written first: only
// an update the DE App accepted reaches the pod's policy document.
func (m *Manager) ModifyPolicy(ctx context.Context, agent solid.WebID, path string, newPol *policy.Policy) error {
	if agent != m.owner {
		if err := m.pod.Authorize(agent, path, solid.ModeControl); err != nil {
			return fmt.Errorf("%w: %v", ErrOwnerOnly, err)
		}
	}
	if _, err := m.de.UpdatePolicy(ctx, distexchange.UpdatePolicyArgs{ResourceIRI: m.ResourceIRI(path), Policy: newPol}); err != nil {
		return err
	}
	return m.putPolicy(path, newPol)
}

// StartMonitoring triggers a monitoring round for a registered resource
// (Fig. 2(6)) and returns the on-chain round record. Withdrawn resources
// stay monitorable: existing holders still carry policy-governed copies.
func (m *Manager) StartMonitoring(ctx context.Context, path string) (distexchange.MonitoringRound, error) {
	return m.de.RequestMonitoring(ctx, m.ResourceIRI(path))
}

// CollectMonitoring returns the evidence and violations recorded for a
// round. If the round is still open, it closes it by reporting the silent
// targets as unresponsive. It reads the round's own slice of the ledger, so
// its cost follows the number of targets, not the resource's history.
func (m *Manager) CollectMonitoring(ctx context.Context, path string, round uint64) ([]distexchange.EvidenceRecord, []distexchange.Violation, error) {
	defer m.collectLatency.Start().Stop()
	iri := m.ResourceIRI(path)
	state, err := m.de.GetMonitoringRound(iri, round)
	if err != nil {
		return nil, nil, err
	}
	if !state.Closed {
		if _, err := m.de.ReportUnresponsive(ctx, iri, round); err != nil {
			// The last answer may have committed between the read and the
			// report, closing the round: the report then reverts.
			var reverted *distexchange.RevertError
			if !errors.As(err, &reverted) {
				return nil, nil, err
			}
			again, rerr := m.de.GetMonitoringRound(iri, round)
			if rerr != nil {
				return nil, nil, rerr
			}
			if !again.Closed {
				return nil, nil, err
			}
		}
	}
	evidence, err := m.de.GetRoundEvidence(iri, round)
	if err != nil {
		return nil, nil, err
	}
	violations, err := m.de.GetRoundViolations(iri, round)
	if err != nil {
		return nil, nil, err
	}
	return evidence, violations, nil
}

// ErrPublishedImmutable refuses non-owner mutations of resources that are
// on the market: the copy the DE App indexed must stay byte-identical to
// the copy consumers fetch.
var ErrPublishedImmutable = errors.New("podmanager: published resource is immutable to non-owners")

// accessHook enforces the market rules on published resources: consumers
// (anyone but the owner) must present a valid payment certificate for the
// exact resource on reads (Fig. 2(4)), and may not mutate the published
// bytes at all — append and write fall to ErrPublishedImmutable before
// WAC even runs. Unpublished resources fall through to plain WAC.
func (m *Manager) accessHook(r *http.Request, agent solid.WebID, path string, mode solid.AccessMode) error {
	if agent == m.owner {
		return nil
	}
	iri := m.ResourceIRI(path)
	m.mu.Lock()
	listed := m.listed[iri]
	m.mu.Unlock()
	if !listed {
		return nil
	}
	if mode != solid.ModeRead {
		return fmt.Errorf("%w: %s by %s on %s", ErrPublishedImmutable, mode, agent, iri)
	}
	certB64 := r.Header.Get(HeaderMarketCertificate)
	if certB64 == "" {
		return fmt.Errorf("%w: missing %s header", ErrCertificate, HeaderMarketCertificate)
	}
	certRaw, err := base64.StdEncoding.DecodeString(certB64)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCertificate, err)
	}
	presenterKey, ok := m.dir.KeyFor(agent)
	if !ok {
		return fmt.Errorf("%w: unknown agent %s", ErrCertificate, agent)
	}
	if err := m.market.Check(certRaw, presenterKey, iri, m.clock.Now()); err != nil {
		return fmt.Errorf("%w: %v", ErrCertificate, err)
	}
	if m.tee != nil {
		if err := m.checkAttestation(r); err != nil {
			return err
		}
	}
	return nil
}

// ErrAttestation rejects requests lacking a valid trusted-application
// attestation.
var ErrAttestation = errors.New("podmanager: attestation rejected")

// checkAttestation verifies the request's TEE quote: manufacturer chain,
// optional measurement pin, and nonce binding to the request's signature
// header (which the Solid server has already verified against the agent's
// key, for a fresh date and an unused request nonce).
func (m *Manager) checkAttestation(r *http.Request) error {
	quoteB64 := r.Header.Get(HeaderTEEQuote)
	if quoteB64 == "" {
		return fmt.Errorf("%w: missing %s header", ErrAttestation, HeaderTEEQuote)
	}
	raw, err := base64.StdEncoding.DecodeString(quoteB64)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	quote, err := tee.DecodeQuote(raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	nonce := r.Header.Get(solid.HeaderSignature)
	if nonce == "" {
		return fmt.Errorf("%w: request has no signature to bind the quote to", ErrAttestation)
	}
	if _, err := tee.VerifyQuote(quote, m.tee.CAKey, []byte(nonce), m.tee.Measurement, m.clock.Now()); err != nil {
		return fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	return nil
}

// AttachTEEQuote returns a request decorator that attests the request:
// the device signs a quote over the request's signature header. Compose
// with AttachCertificate via Decorators, which solid.Client runs after it
// signs.
func AttachTEEQuote(device *tee.Device) func(*http.Request) {
	return func(r *http.Request) {
		nonce := r.Header.Get(solid.HeaderSignature)
		if nonce == "" {
			return // anonymous request; the server will reject if required
		}
		quote, err := device.Attest([]byte(nonce))
		if err != nil {
			return
		}
		r.Header.Set(HeaderTEEQuote, base64.StdEncoding.EncodeToString(quote.Encode()))
	}
}

// Decorators composes request decorators left to right.
func Decorators(fns ...func(*http.Request)) func(*http.Request) {
	return func(r *http.Request) {
		for _, fn := range fns {
			if fn != nil {
				fn(r)
			}
		}
	}
}

// AttachCertificate returns a solid.Client decorator that presents a
// payment certificate on every request. It refuses a nil certificate.
func AttachCertificate(cert *cryptoutil.Certificate) (func(*http.Request), error) {
	if cert == nil {
		return nil, errors.New("podmanager: no certificate to attach")
	}
	encoded := base64.StdEncoding.EncodeToString(cert.Encode())
	return func(r *http.Request) {
		r.Header.Set(HeaderMarketCertificate, encoded)
	}, nil
}

// WaitForRoundClosure returns the round's state once it has closed or the
// timeout has elapsed. It waits on the push-out oracle, not on a poll: it
// subscribes to the resource's EvidenceRecorded events and only then
// reads the round, so evidence recorded before the subscription is in
// that read and evidence recorded after it is delivered. The handler runs
// on the goroutine committing the evidence, so it only marks a one-slot
// channel: each mark triggers a re-read, and a burst (a block of
// evidence) coalesces into one. The timeout is wall-clock bound (not simclock) because it
// synchronizes goroutines, not simulated time; it is the only timer.
func (m *Manager) WaitForRoundClosure(path string, round uint64, timeout time.Duration) (distexchange.MonitoringRound, error) {
	iri := m.ResourceIRI(path)
	recorded := make(chan struct{}, 1)
	if m.pushOut != nil {
		cancel := m.pushOut.On(chain.EventFilter{
			Contract: m.deAddr, Topic: distexchange.TopicEvidenceRecorded, Key: iri,
		}, func(chain.Event) {
			select {
			case recorded <- struct{}{}:
			default: // a re-read is already owed
			}
		})
		defer cancel()
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		state, err := m.de.GetMonitoringRound(iri, round)
		if err != nil || state.Closed {
			return state, err
		}
		select {
		case <-recorded:
		case <-deadline.C:
			return m.de.GetMonitoringRound(iri, round) // the state at the deadline
		}
	}
}
