package solid

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// Authentication headers of the simulated Solid-OIDC scheme: the agent
// presents its WebID, a timestamp, a single-use nonce, and an ECDSA
// signature over "method|path|date|nonce". The server verifies the
// signature under the key the agent directory holds for the WebID (the
// stand-in for dereferencing the WebID profile document), and rejects any
// (agent, nonce) pair it has already seen within the skew window — so a
// captured request cannot be replayed verbatim.
const (
	HeaderAgent     = "X-Agent"
	HeaderDate      = "X-Date"
	HeaderNonce     = "X-Nonce"
	HeaderSignature = "X-Signature"
)

// MaxClockSkew bounds how stale a signed request may be. Within the
// window, the per-agent seen-nonce check blocks replays.
const MaxClockSkew = 5 * time.Minute

// MaxBodyBytes caps accepted request bodies; larger uploads are refused
// with 413 rather than silently truncated.
const MaxBodyBytes = 64 << 20

// ErrNonceReplayed reports a verified request whose (agent, nonce) pair
// was already consumed within the skew window — a verbatim replay.
var ErrNonceReplayed = errors.New("solid: nonce already used")

// maxNoncesPerAgent bounds replay-guard memory per agent. Capacity
// eviction is strictly per agent — an agent past its quota loses its own
// oldest nonce — so a flood of signed requests can only ever weaken the
// flooding agent's replay protection, never another agent's, and a pod
// under heavy legitimate traffic never locks its agents out.
const maxNoncesPerAgent = 1 << 10

// replayGuard remembers each agent's used nonces until their request
// timestamps age out of the skew window (a replay of an aged-out request
// already fails the staleness check on its own).
type replayGuard struct {
	mu     sync.Mutex
	agents map[WebID]*agentNonces
}

type agentNonces struct {
	seen  map[string]time.Time // nonce -> signed request timestamp
	order []nonceEntry         // insertion order, for pruning/eviction
}

type nonceEntry struct {
	nonce string
	ts    time.Time
}

func newReplayGuard() *replayGuard {
	return &replayGuard{agents: make(map[WebID]*agentNonces)}
}

// check records the nonce, failing if the agent already used it. ts is
// the signed request timestamp; now prunes entries that have aged out of
// the skew window.
func (g *replayGuard) check(agent WebID, nonce string, ts, now time.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.agents[agent]
	if a == nil {
		a = &agentNonces{seen: make(map[string]time.Time)}
		g.agents[agent] = a
	}
	// Prune this agent's aged-out entries. The queue is insertion-ordered
	// while timestamps are client-chosen within the skew window, so a
	// future-stamped entry can delay pruning behind it — but only for the
	// agent that sent it, and capacity eviction below still bounds memory.
	horizon := now.Add(-MaxClockSkew)
	i := 0
	for ; i < len(a.order); i++ {
		if !a.order[i].ts.Before(horizon) {
			break
		}
		delete(a.seen, a.order[i].nonce)
	}
	if i > 0 {
		a.order = append(a.order[:0], a.order[i:]...)
	}
	if _, dup := a.seen[nonce]; dup {
		return fmt.Errorf("%w: nonce %s by %s", ErrNonceReplayed, nonce, agent)
	}
	if len(a.order) >= maxNoncesPerAgent {
		oldest := a.order[0]
		a.order = a.order[1:]
		delete(a.seen, oldest.nonce)
	}
	a.seen[nonce] = ts
	a.order = append(a.order, nonceEntry{nonce: nonce, ts: ts})
	return nil
}

// AgentDirectory resolves a WebID to its registered public key
// (uncompressed point). It simulates fetching the key from the agent's
// WebID profile document.
type AgentDirectory interface {
	// KeyFor returns the public key bytes for the WebID, or false if the
	// agent is unknown.
	KeyFor(agent WebID) ([]byte, bool)
}

// MapDirectory is an in-memory AgentDirectory.
type MapDirectory struct {
	mu   sync.RWMutex
	keys map[WebID][]byte
}

var _ AgentDirectory = (*MapDirectory)(nil)

// NewMapDirectory returns an empty directory.
func NewMapDirectory() *MapDirectory {
	return &MapDirectory{keys: make(map[WebID][]byte)}
}

// Register associates an agent with its public key.
func (d *MapDirectory) Register(agent WebID, key []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[agent] = append([]byte(nil), key...)
}

// KeyFor implements AgentDirectory.
func (d *MapDirectory) KeyFor(agent WebID) ([]byte, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	k, ok := d.keys[agent]
	return k, ok
}

// AccessHook lets embedders add checks beyond WAC (the pod manager uses it
// to demand a market payment certificate on data-market resources). It
// runs after authentication and before the ACL check.
type AccessHook func(r *http.Request, agent WebID, path string, mode AccessMode) error

// Server serves a pod over the Solid communication rules.
type Server struct {
	pod     *Pod
	dir     AgentDirectory
	clock   simclock.Clock
	hook    AccessHook
	replay  *replayGuard
	metrics *Metrics // never nil; see SetMetrics
}

// NewServer builds a pod server. clock defaults to the real clock; hook
// may be nil.
func NewServer(pod *Pod, dir AgentDirectory, clock simclock.Clock, hook AccessHook) *Server {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Server{pod: pod, dir: dir, clock: clock, hook: hook, replay: newReplayGuard(), metrics: noopMetrics}
}

// SetMetrics wires the server's observability instruments. Call before
// serving; a nil m restores the no-op default.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m.orNoop() }

// signingString is the byte string covered by the request signature.
func signingString(method, path, date, nonce string) []byte {
	return []byte(method + "|" + path + "|" + date + "|" + nonce)
}

// signingPathKey marks the request-path the client signed when a Host has
// rewritten URL.Path to the pod-relative form.
type signingPathKey struct{}

// signingPath returns the path covered by the request signature: the
// original request path as received by the front handler.
func signingPath(r *http.Request) string {
	if p, ok := r.Context().Value(signingPathKey{}).(string); ok {
		return p
	}
	return r.URL.Path
}

// authenticate identifies the requesting agent. Requests without an
// X-Agent header are anonymous (WebID ""). Bad credentials are an error.
func (s *Server) authenticate(r *http.Request) (WebID, error) {
	agent := WebID(r.Header.Get(HeaderAgent))
	if agent == "" {
		return "", nil
	}
	sigB64 := r.Header.Get(HeaderSignature)
	date := r.Header.Get(HeaderDate)
	nonce := r.Header.Get(HeaderNonce)
	if sigB64 == "" || date == "" || nonce == "" {
		return "", errors.New("solid: incomplete authentication headers")
	}
	ts, err := time.Parse(time.RFC3339Nano, date)
	if err != nil {
		return "", fmt.Errorf("solid: bad %s: %w", HeaderDate, err)
	}
	now := s.clock.Now()
	if ts.Before(now.Add(-MaxClockSkew)) || ts.After(now.Add(MaxClockSkew)) {
		return "", fmt.Errorf("solid: request timestamp %s outside allowed skew", date)
	}
	registered, ok := s.dir.KeyFor(agent)
	if !ok {
		return "", fmt.Errorf("solid: unknown agent %s", agent)
	}
	pub, _, err := cryptoutil.ParsePublicKey(registered)
	if err != nil {
		return "", fmt.Errorf("solid: bad key registered for %s: %w", agent, err)
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return "", fmt.Errorf("solid: bad %s: %w", HeaderSignature, err)
	}
	if !cryptoutil.Verify(pub, signingString(r.Method, signingPath(r), date, nonce), sig) {
		return "", errors.New("solid: request signature invalid")
	}
	// Replay check last: only successfully verified requests consume their
	// nonce, so an attacker cannot burn a victim's nonce with a bad
	// signature.
	if err := s.replay.check(agent, nonce, ts, now); err != nil {
		s.metrics.NonceReplays.Inc()
		return "", err
	}
	return agent, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	agent, err := s.authenticate(r)
	if err != nil {
		if !errors.Is(err, ErrNonceReplayed) {
			// Replays are counted at the guard; everything else here.
			s.metrics.AuthFailures.Inc()
		}
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	path := r.URL.Path

	var mode AccessMode
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		mode = ModeRead
	case http.MethodPut, http.MethodDelete:
		mode = ModeWrite
	case http.MethodPost:
		// POST is an append: it adds to a container (or resource) without
		// replacing anything, so it needs Append, not Write.
		mode = ModeAppend
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT, POST, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	if s.hook != nil {
		if err := s.hook(r, agent, path, mode); err != nil {
			status := http.StatusForbidden
			if errors.Is(err, ErrNotFound) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
	}

	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.handleGet(w, r, agent, path)
	case http.MethodPut:
		s.handlePut(w, r, agent, path)
	case http.MethodPost:
		s.handlePost(w, r, agent, path)
	case http.MethodDelete:
		s.handleDelete(w, r, agent, path)
	}
}

func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoACL):
		return http.StatusNotFound
	case errors.Is(err, ErrBadPath):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// etagMatches reports whether an If-None-Match header value matches the
// entity tag (either exactly, unquoted, or the wildcard).
func etagMatches(headerValue, etag string) bool {
	if headerValue == "" {
		return false
	}
	for _, candidate := range strings.Split(headerValue, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" || candidate == etag || `"`+candidate+`"` == etag {
			return true
		}
	}
	return false
}

// notModified evaluates the request's conditional headers against the
// resource validators. If-None-Match wins over If-Modified-Since when
// both are present (RFC 9110 §13.1.3).
func notModified(r *http.Request, etag string, modified time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		return etagMatches(inm, etag)
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" && !modified.IsZero() {
		since, err := http.ParseTime(ims)
		if err == nil && !modified.Truncate(time.Second).After(since) {
			return true
		}
	}
	return false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, agent WebID, path string) {
	if strings.HasSuffix(path, "/") {
		doc, err := s.pod.ContainerListing(agent, path)
		if err != nil {
			http.Error(w, err.Error(), httpStatusFor(err))
			return
		}
		etag := ETagFor([]byte(doc))
		w.Header().Set("ETag", etag)
		if notModified(r, etag, time.Time{}) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		if r.Method == http.MethodHead {
			return
		}
		_, _ = io.WriteString(w, doc)
		return
	}
	// The stored resource itself: its body is never written again, so
	// it goes out without a copy.
	res, err := s.pod.lookup(agent, path, ModeRead)
	if err != nil {
		http.Error(w, err.Error(), httpStatusFor(err))
		return
	}
	w.Header().Set("ETag", res.ETag)
	w.Header().Set("Last-Modified", res.Modified.UTC().Format(http.TimeFormat))
	if notModified(r, res.ETag, res.Modified) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	ct := res.ContentType
	if ct == "" {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(res.Data)))
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(res.Data)
}

// maxPresized bounds the buffer readSized allocates on the sender's word
// alone: a larger declared body grows as its bytes arrive, so a header
// cannot make the reader reserve memory the sender never sends.
const maxPresized = 1 << 20

// readSized reads r whole, stopping after limit bytes. A body whose
// Content-Length n is known and at most maxPresized is read into one
// buffer of exactly n bytes; any other is read as io.ReadAll reads it.
func readSized(r io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > min(limit, maxPresized) {
		return io.ReadAll(io.LimitReader(r, limit))
	}
	body := make([]byte, n)
	_, err := io.ReadFull(r, body)
	return body, err
}

// readBody drains the request body, refusing (rather than truncating)
// payloads over MaxBodyBytes.
func readBody(r *http.Request) ([]byte, bool, error) {
	body, err := readSized(r.Body, r.ContentLength, MaxBodyBytes+1)
	if err != nil {
		return nil, false, err
	}
	if len(body) > MaxBodyBytes {
		return nil, true, fmt.Errorf("solid: body exceeds %d bytes", MaxBodyBytes)
	}
	return body, false, nil
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, agent WebID, path string) {
	body, tooLarge, err := readBody(r)
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	ct := r.Header.Get("Content-Type")
	created, etag, err := s.pod.PutResource(agent, path, ct, body, s.clock.Now())
	if err != nil {
		http.Error(w, err.Error(), httpStatusFor(err))
		return
	}
	w.Header().Set("ETag", etag)
	if created {
		w.WriteHeader(http.StatusCreated)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handlePost(w http.ResponseWriter, r *http.Request, agent WebID, path string) {
	body, tooLarge, err := readBody(r)
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	ct := r.Header.Get("Content-Type")
	storedPath, created, err := s.pod.Append(agent, path, ct, body, s.clock.Now())
	if err != nil {
		http.Error(w, err.Error(), httpStatusFor(err))
		return
	}
	if created {
		w.Header().Set("Location", s.pod.BaseURL()+storedPath)
		w.WriteHeader(http.StatusCreated)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, agent WebID, path string) {
	if err := s.pod.Delete(agent, path); err != nil {
		http.Error(w, err.Error(), httpStatusFor(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
