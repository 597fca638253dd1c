package solid

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/simclock"
	"repro/internal/store"
)

// PodRoutePrefix is where a Host mounts its pods: /pods/{owner}/<path>.
const PodRoutePrefix = "/pods/"

// hostShardCount spreads the pod registry over independent locks so
// lookups under heavy multi-tenant traffic do not serialize.
const hostShardCount = 32

// Host errors.
var (
	ErrPodExists  = errors.New("solid: pod already mounted")
	ErrBadPodName = errors.New("solid: invalid pod name")
)

// Host serves many pods behind a single http.Handler — the paper's
// deployment shape, where one provider hosts the pods of millions of
// users. Requests to /pods/{owner}/<path> are routed to the owner's pod
// server with <path> as the pod-relative resource path; the original
// request path stays the signature target, so credentials for one pod
// never validate on another. The registry is sharded: concurrent
// requests to different pods contend only within their shard.
type Host struct {
	dir    AgentDirectory
	clock  simclock.Clock
	shards [hostShardCount]hostShard

	// dataDir, when set via EnablePersistence, makes CreatePod build
	// durable pods under dataDir/<name>/ so a restarted host serves the
	// exact content — ETags and ACL generations included — of its
	// predecessor.
	dataDir     string
	persistOpts store.Options

	// metrics is never nil (defaults to the no-op handle); set it with
	// SetMetrics before mounting pods.
	metrics *Metrics
}

type hostShard struct {
	mu   sync.RWMutex
	pods map[string]*mountedPod // guarded by mu
}

type mountedPod struct {
	pod     *Pod
	handler http.Handler
}

// NewHost builds an empty multi-pod host. The directory authenticates
// agents for pods created through CreatePod; clock defaults to the real
// clock.
func NewHost(dir AgentDirectory, clock simclock.Clock) *Host {
	if clock == nil {
		clock = simclock.Real{}
	}
	h := &Host{dir: dir, clock: clock, metrics: noopMetrics}
	for i := range h.shards {
		h.shards[i].pods = make(map[string]*mountedPod)
	}
	return h
}

// SetMetrics wires the host's observability instruments. Call before
// mounting pods (pods and servers created by CreatePod capture the
// handle at creation); a nil m restores the no-op default.
func (h *Host) SetMetrics(m *Metrics) { h.metrics = m.orNoop() }

func (h *Host) shardFor(name string) *hostShard {
	f := fnv.New32a()
	_, _ = f.Write([]byte(name))
	return &h.shards[f.Sum32()%hostShardCount]
}

// validPodName accepts URL-safe single-segment names.
func validPodName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// EnablePersistence makes every subsequent CreatePod durable: pod
// content is journaled under dataDir/<name>/ and restored when a new
// host re-creates the pod over the same directory; opts is the op logs'
// fsync policy. Call before mounting pods.
func (h *Host) EnablePersistence(dataDir string, opts store.Options) {
	h.dataDir = dataDir
	h.persistOpts = opts
}

// CreatePod provisions a pod for the owner under /pods/{name}/ and mounts
// a server for it. hostBaseURL is the host's public base URL (no trailing
// slash); the pod's base URL becomes hostBaseURL + "/pods/" + name. On a
// persistent host (EnablePersistence) the pod is opened from its durable
// store, restoring any previous content.
func (h *Host) CreatePod(name string, owner WebID, hostBaseURL string, hook AccessHook) (*Pod, error) {
	if !validPodName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadPodName, name)
	}
	baseURL := strings.TrimSuffix(hostBaseURL, "/") + PodRoutePrefix + name
	var pod *Pod
	if h.dataDir != "" {
		var err error
		pod, err = OpenPod(owner, baseURL, filepath.Join(h.dataDir, name), h.persistOpts)
		if err != nil {
			return nil, err
		}
	} else {
		pod = NewPod(owner, baseURL)
	}
	srv := NewServer(pod, h.dir, h.clock, hook)
	srv.SetMetrics(h.metrics)
	if err := h.Mount(name, pod, srv); err != nil {
		return nil, errors.Join(err, pod.CloseStore())
	}
	return pod, nil
}

// Close flushes and closes every mounted pod's durable store (no-op for
// in-memory pods), returning the first error encountered.
func (h *Host) Close() error {
	var first error
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		for _, m := range s.pods {
			if m.pod == nil {
				continue
			}
			if err := m.pod.CloseStore(); err != nil && first == nil {
				first = err
			}
		}
		s.mu.RUnlock()
	}
	return first
}

// Mount routes /pods/{name}/ to an externally built handler (typically a
// *Server wrapped by a pod manager). pod may be nil when the handler does
// not expose one; a non-nil pod is wired to the host's instruments, so
// mount it before it serves.
func (h *Host) Mount(name string, pod *Pod, handler http.Handler) error {
	if !validPodName(name) {
		return fmt.Errorf("%w: %q", ErrBadPodName, name)
	}
	s := h.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.pods[name]; taken {
		return fmt.Errorf("%w: %s", ErrPodExists, name)
	}
	if pod != nil {
		pod.setMetrics(h.metrics)
	}
	s.pods[name] = &mountedPod{pod: pod, handler: handler}
	return nil
}

// Lookup returns the mounted pod for a name (nil for handler-only mounts).
func (h *Host) Lookup(name string) (*Pod, bool) {
	s := h.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.pods[name]
	if !ok {
		return nil, false
	}
	return m.pod, true
}

// Remove unmounts a pod. It reports whether the pod was mounted.
func (h *Host) Remove(name string) bool {
	s := h.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pods[name]
	delete(s.pods, name)
	return ok
}

// Len counts mounted pods.
func (h *Host) Len() int {
	n := 0
	for i := range h.shards {
		h.shards[i].mu.RLock()
		n += len(h.shards[i].pods)
		h.shards[i].mu.RUnlock()
	}
	return n
}

// Names lists the mounted pod names (unordered).
func (h *Host) Names() []string {
	var out []string
	for i := range h.shards {
		h.shards[i].mu.RLock()
		for name := range h.shards[i].pods {
			out = append(out, name)
		}
		h.shards[i].mu.RUnlock()
	}
	return out
}

// ServeHTTP implements http.Handler: it resolves the pod segment, rewrites
// the URL to the pod-relative path, records the original path as the
// signature target, and delegates to the pod's handler.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, PodRoutePrefix)
	if !ok {
		h.metrics.UnroutedReqs.Inc()
		http.Error(w, "not found (pods live under "+PodRoutePrefix+")", http.StatusNotFound)
		return
	}
	name, podPath, found := strings.Cut(rest, "/")
	if !found {
		podPath = ""
	}
	podPath = "/" + podPath

	s := h.shardFor(name)
	s.mu.RLock()
	m, mounted := s.pods[name]
	s.mu.RUnlock()
	if !mounted {
		h.metrics.UnroutedReqs.Inc()
		http.Error(w, "unknown pod "+name, http.StatusNotFound)
		return
	}

	tm := h.metrics.requestLatency(podPath, r.Method).Start()
	defer tm.Stop()
	r2 := r.Clone(context.WithValue(r.Context(), signingPathKey{}, signingPath(r)))
	r2.URL.Path = podPath
	m.handler.ServeHTTP(w, r2)
}
