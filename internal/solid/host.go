package solid

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// PodRoutePrefix is where a Host mounts its pods: /pods/{owner}/<path>.
const PodRoutePrefix = "/pods/"

// Host errors.
var (
	ErrPodExists  = errors.New("solid: pod already mounted")
	ErrBadPodName = errors.New("solid: invalid pod name")
)

// Host serves many pods behind a single http.Handler — the paper's
// deployment shape, where one provider hosts the pods of many users.
// Requests to /pods/{owner}/<path> are routed to the owner's pod server
// with <path> as the pod-relative resource path; the original request
// path stays the signature target, so credentials for one pod never
// validate on another. The Host only routes: whoever builds a pod and
// its server mounts them, and closes the pod's store when done.
type Host struct {
	mu   sync.RWMutex
	pods map[string]*Server // guarded by mu

	// metrics is never nil (defaults to the no-op handle); set it with
	// SetMetrics before mounting pods.
	metrics *Metrics
}

// NewHost builds an empty multi-pod host.
func NewHost() *Host {
	return &Host{pods: make(map[string]*Server), metrics: noopMetrics}
}

// SetMetrics wires the host's observability instruments. Call before
// mounting pods (Mount hands the handle to each server and its pod); a
// nil m restores the no-op default.
func (h *Host) SetMetrics(m *Metrics) { h.metrics = m.orNoop() }

// ValidPodName accepts URL-safe single-segment names: the names Mount
// takes, and the only ones safe to use as a directory name.
func ValidPodName(name string) bool {
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

// Mount routes /pods/{name}/ to srv and wires the host's instruments
// into srv and its pod, so mount a server before it serves.
func (h *Host) Mount(name string, srv *Server) error {
	if !ValidPodName(name) {
		return fmt.Errorf("%w: %q", ErrBadPodName, name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, taken := h.pods[name]; taken {
		return fmt.Errorf("%w: %s", ErrPodExists, name)
	}
	srv.SetMetrics(h.metrics)
	srv.pod.setMetrics(h.metrics)
	h.pods[name] = srv
	return nil
}

// Lookup returns the pod mounted under a name.
func (h *Host) Lookup(name string) (*Pod, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	srv, ok := h.pods[name]
	if !ok {
		return nil, false
	}
	return srv.pod, true
}

// Remove unmounts a pod. It reports whether the pod was mounted.
func (h *Host) Remove(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.pods[name]
	delete(h.pods, name)
	return ok
}

// Len counts mounted pods.
func (h *Host) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pods)
}

// Names lists the mounted pod names (unordered).
func (h *Host) Names() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.pods))
	for name := range h.pods {
		out = append(out, name)
	}
	return out
}

// ServeHTTP implements http.Handler: it resolves the pod segment, rewrites
// the URL to the pod-relative path, records the original path as the
// signature target, and delegates to the pod's server.
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

	h.mu.RLock()
	srv, mounted := h.pods[name]
	h.mu.RUnlock()
	if !mounted {
		h.metrics.UnroutedReqs.Inc()
		http.Error(w, "unknown pod "+name, http.StatusNotFound)
		return
	}

	tm := h.metrics.requestLatency(podPath, r.Method).Start()
	defer tm.Stop()
	r2 := r.Clone(context.WithValue(r.Context(), signingPathKey{}, signingPath(r)))
	r2.URL.Path = podPath
	srv.ServeHTTP(w, r2)
}
