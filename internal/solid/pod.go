package solid

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// Resource is one document stored in a pod.
type Resource struct {
	// Path is the pod-relative path ("/web/browsing.csv").
	Path string
	// ContentType is the MIME type.
	ContentType string
	// Data is the resource body.
	Data []byte
	// Modified is the last modification time.
	Modified time.Time
	// ETag is a strong validator over the body, set by the pod on every
	// write (quoted, ready for the HTTP ETag header).
	ETag string
}

// ETagFor computes the strong entity tag the pod assigns to a body.
func ETagFor(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// maxAuthCacheEntries bounds the decision cache; past it the cache is
// reset wholesale (correctness comes from the generation stamp, the bound
// only caps memory).
const maxAuthCacheEntries = 1 << 14

// authCacheKey identifies one access-control decision.
type authCacheKey struct {
	agent WebID
	path  string
	mode  AccessMode
}

// authDecision is a memoized Authorize outcome, valid only while the
// pod's ACL generation still equals gen.
type authDecision struct {
	gen uint64
	err error // nil = allowed; otherwise the stable ErrForbidden-wrapped denial
}

// Pod is a personal online datastore: a hierarchical resource tree with
// per-resource and inherited (acl:default) access control documents.
// A Pod is safe for concurrent use.
//
// Authorize decisions are memoized in a generation-stamped cache keyed by
// (agent, path, mode): every mutation (SetACL, Put, Delete, Append) bumps
// the generation, invalidating all cached decisions at once, so the hot
// read path costs one map lookup instead of an ancestor walk plus a
// linear authorization scan.
type Pod struct {
	owner   WebID
	baseURL string

	mu        sync.RWMutex
	resources map[string]*Resource // guarded by mu
	acls      map[string]*ACL      // keyed by the path the ACL document governs; guarded by mu
	postSeq   uint64               // server-assigned POST child names; guarded by mu

	aclGen    atomic.Uint64 // bumped on every mutation
	authMu    sync.RWMutex
	authCache map[authCacheKey]authDecision // guarded by authMu

	// persist journals mutation effects to a per-pod op log (nil for
	// in-memory pods); see OpenPod. Guarded by mu.
	persist *podStore

	// metrics is never nil (defaults to the no-op handle); set via
	// setMetrics before the pod serves requests.
	metrics *Metrics
}

// Pod errors.
var (
	ErrNotFound  = errors.New("solid: resource not found")
	ErrForbidden = errors.New("solid: access denied")
	ErrBadPath   = errors.New("solid: invalid resource path")
	ErrNoACL     = errors.New("solid: no ACL document")
)

// NewPod creates a pod whose root ACL grants the owner full control.
func NewPod(owner WebID, baseURL string) *Pod {
	return &Pod{
		owner:     owner,
		baseURL:   strings.TrimSuffix(baseURL, "/"),
		resources: make(map[string]*Resource),
		acls:      map[string]*ACL{"/": NewACL(owner, "/")},
		authCache: make(map[authCacheKey]authDecision),
		metrics:   noopMetrics,
	}
}

// setMetrics wires the pod's observability instruments (Host.Mount
// calls it, before the pod serves). A nil m restores the no-op default.
func (p *Pod) setMetrics(m *Metrics) { p.metrics = m.orNoop() }

// ACLGeneration returns the pod's current ACL generation. The counter
// advances on every mutation (SetACL, Put, Delete, Append), so two equal
// readings bracket a window in which every authorization decision was
// made against the same ACL state — invariant checkers use it to stamp
// "as of generation g, agent x was (not) granted" facts.
func (p *Pod) ACLGeneration() uint64 { return p.aclGen.Load() }

// BaseURL returns the pod's base URL (no trailing slash).
func (p *Pod) BaseURL() string { return p.baseURL }

// normalizePath validates and canonicalizes a pod-relative path.
func normalizePath(raw string) (string, error) {
	if raw == "" || raw[0] != '/' {
		return "", fmt.Errorf("%w: %q must start with '/'", ErrBadPath, raw)
	}
	// Reject traversal attempts outright rather than silently resolving
	// them; a client that sends ".." is either buggy or probing.
	if strings.Contains(raw, "..") {
		return "", fmt.Errorf("%w: %q contains '..'", ErrBadPath, raw)
	}
	clean := path.Clean(raw)
	// path.Clean strips trailing slashes; keep container paths marked.
	if raw != "/" && strings.HasSuffix(raw, "/") && clean != "/" {
		clean += "/"
	}
	return clean, nil
}

// Put stores (creates or replaces) a resource, subject to the agent
// holding Write access.
func (p *Pod) Put(agent WebID, resPath, contentType string, data []byte, now time.Time) error {
	_, _, err := p.PutResource(agent, resPath, contentType, data, now)
	return err
}

// PutResource is Put reporting whether the resource was created (true) or
// an existing one overwritten (false) and the stored entity tag, so HTTP
// handlers can answer 201 vs 200 with the validator without re-hashing
// the body.
func (p *Pod) PutResource(agent WebID, resPath, contentType string, data []byte, now time.Time) (created bool, etag string, err error) {
	clean, err := normalizePath(resPath)
	if err != nil {
		return false, "", err
	}
	if err := p.Authorize(agent, clean, ModeWrite); err != nil {
		return false, "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, existed := p.resources[clean]
	op := podOp{
		Kind: podOpPut, Path: clean, ContentType: contentType,
		Data: append([]byte(nil), data...), Modified: now,
	}
	if err := p.commitLocked(op); err != nil {
		return false, "", err
	}
	return !existed, p.resources[clean].ETag, nil
}

// Append adds data to a resource, subject to the agent holding Append
// access (which Write implies). Appending to a container path creates a
// fresh contained resource with a server-assigned name (LDP POST
// semantics); appending to a missing resource creates it. It returns the
// path of the affected resource and whether it was created.
func (p *Pod) Append(agent WebID, resPath, contentType string, data []byte, now time.Time) (storedPath string, created bool, err error) {
	clean, err := normalizePath(resPath)
	if err != nil {
		return "", false, err
	}
	if err := p.Authorize(agent, clean, ModeAppend); err != nil {
		return "", false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	op := podOp{Kind: podOpPut, Path: clean, ContentType: contentType, Modified: now}
	res, existed := p.resources[clean]
	switch {
	case strings.HasSuffix(clean, "/"):
		// POST to a container: mint a child that does not collide. The
		// name goes into the op; the pod's counter moves when it commits.
		existed = false
		for op.PostSeq = p.postSeq + 1; ; op.PostSeq++ {
			op.Path = fmt.Sprintf("%sres-%06d", clean, op.PostSeq)
			if _, taken := p.resources[op.Path]; !taken {
				break
			}
		}
		op.Data = append([]byte(nil), data...)
	case existed:
		op.Data = append(append(make([]byte, 0, len(res.Data)+len(data)), res.Data...), data...)
		if res.ContentType != "" {
			op.ContentType = res.ContentType
		}
	default:
		op.Data = append([]byte(nil), data...)
	}
	if err := p.commitLocked(op); err != nil {
		return "", false, err
	}
	return op.Path, !existed, nil
}

// Get retrieves a resource, subject to Read access. The result is the
// caller's own copy.
func (p *Pod) Get(agent WebID, resPath string) (*Resource, error) {
	res, err := p.lookup(agent, resPath, ModeRead)
	if err != nil {
		return nil, err
	}
	cp := *res
	cp.Data = append([]byte(nil), res.Data...)
	return &cp, nil
}

// Exists reports whether the agent holds mode on resPath and a resource is
// stored there: nil, Authorize's error, or ErrNotFound. It reads no body.
func (p *Pod) Exists(agent WebID, resPath string, mode AccessMode) error {
	_, err := p.lookup(agent, resPath, mode)
	return err
}

// lookup authorizes mode and returns the stored resource itself, not a
// copy. A stored Resource is never written after applyOpLocked installs
// it (every mutation builds a fresh one), so the result stays whole while
// later writes replace it; callers read it and must not change it.
func (p *Pod) lookup(agent WebID, resPath string, mode AccessMode) (*Resource, error) {
	clean, err := normalizePath(resPath)
	if err != nil {
		return nil, err
	}
	if err := p.Authorize(agent, clean, mode); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	res, ok := p.resources[clean]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	return res, nil
}

// Delete removes a resource, subject to Write access.
func (p *Pod) Delete(agent WebID, resPath string) error {
	clean, err := normalizePath(resPath)
	if err != nil {
		return err
	}
	if err := p.Authorize(agent, clean, ModeWrite); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.resources[clean]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, clean)
	}
	return p.commitLocked(podOp{Kind: podOpDel, Path: clean})
}

// List returns the paths directly contained in a container path, subject
// to Read access on the container.
func (p *Pod) List(agent WebID, containerPath string) ([]string, error) {
	clean, err := normalizePath(containerPath)
	if err != nil {
		return nil, err
	}
	if clean != "/" && !strings.HasSuffix(clean, "/") {
		clean += "/"
	}
	if err := p.Authorize(agent, clean, ModeRead); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	seen := map[string]struct{}{}
	for rp := range p.resources {
		if !strings.HasPrefix(rp, clean) || rp == clean {
			continue
		}
		rest := rp[len(clean):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[clean+rest[:i+1]] = struct{}{} // sub-container
		} else {
			seen[rp] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// SetACL installs an ACL document governing the given path, subject to the
// agent holding Control access on that path. A nil document is refused.
func (p *Pod) SetACL(agent WebID, resPath string, acl *ACL) error {
	clean, err := normalizePath(resPath)
	if err != nil {
		return err
	}
	if acl == nil {
		return fmt.Errorf("%w to install at %s", ErrNoACL, clean)
	}
	if err := p.Authorize(agent, clean, ModeControl); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitLocked(podOp{Kind: podOpACL, Path: clean, ACL: acl})
}

// GetACL returns the ACL document stored exactly at the given path,
// subject to Control access.
func (p *Pod) GetACL(agent WebID, resPath string) (*ACL, error) {
	clean, err := normalizePath(resPath)
	if err != nil {
		return nil, err
	}
	if err := p.Authorize(agent, clean, ModeControl); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	acl, ok := p.acls[clean]
	if !ok {
		return nil, fmt.Errorf("%w at %s", ErrNoACL, clean)
	}
	return acl, nil
}

// Authorize checks whether the agent holds the mode on the path, walking
// up the container hierarchy to the nearest ACL document (WAC inheritance:
// the resource's own ACL wins; otherwise the closest ancestor's
// acl:default authorizations apply). Decisions are served from the
// generation-stamped cache when the ACL set has not changed since they
// were computed.
func (p *Pod) Authorize(agent WebID, resPath string, mode AccessMode) error {
	clean, err := normalizePath(resPath)
	if err != nil {
		return err
	}

	// The pod owner always holds full access to their own pod.
	if agent == p.owner {
		return nil
	}

	key := authCacheKey{agent: agent, path: clean, mode: mode}
	// Snapshot the generation before evaluating: a decision computed
	// against newer state stored under an older stamp is merely ignored,
	// never trusted.
	gen := p.aclGen.Load()
	p.authMu.RLock()
	dec, ok := p.authCache[key]
	p.authMu.RUnlock()
	if ok && dec.gen == gen {
		p.metrics.AuthCacheHits.Inc()
		return dec.err
	}

	p.metrics.AuthCacheMisses.Inc()
	decision := p.authorizeUncached(agent, clean, mode)
	p.authMu.Lock()
	if len(p.authCache) >= maxAuthCacheEntries {
		p.authCache = make(map[authCacheKey]authDecision)
	}
	p.authCache[key] = authDecision{gen: gen, err: decision}
	p.authMu.Unlock()
	return decision
}

// authorizeUncached is the full decision procedure: ancestor walk plus
// linear Allows scan.
func (p *Pod) authorizeUncached(agent WebID, clean string, mode AccessMode) error {
	p.mu.RLock()
	defer p.mu.RUnlock()

	if acl, ok := p.acls[clean]; ok {
		if acl.Allows(agent, clean, mode, false) {
			return nil
		}
		// An ACL document exactly on the resource is authoritative: no
		// fallback to ancestors.
		return fmt.Errorf("%w: %s needs %s on %s", ErrForbidden, agent, mode, clean)
	}
	for _, ancestor := range ancestorsOf(clean) {
		if acl, ok := p.acls[ancestor]; ok {
			if acl.Allows(agent, clean, mode, true) {
				return nil
			}
			return fmt.Errorf("%w: %s needs %s on %s (inherited from %s)",
				ErrForbidden, agent, mode, clean, ancestor)
		}
	}
	return fmt.Errorf("%w: %s needs %s on %s (no applicable ACL)", ErrForbidden, agent, mode, clean)
}

// ancestorsOf lists the container paths from the immediate parent to the
// root, e.g. "/a/b/c.txt" -> ["/a/b/", "/a/", "/"].
func ancestorsOf(p string) []string {
	var out []string
	trimmed := strings.TrimSuffix(p, "/")
	for {
		i := strings.LastIndexByte(trimmed, '/')
		if i < 0 {
			break
		}
		if i == 0 {
			out = append(out, "/")
			break
		}
		out = append(out, trimmed[:i+1])
		trimmed = trimmed[:i]
	}
	return out
}

// ContainerListing renders a container listing as an LDP Turtle document.
func (p *Pod) ContainerListing(agent WebID, containerPath string) (string, error) {
	entries, err := p.List(agent, containerPath)
	if err != nil {
		return "", err
	}
	g := rdf.NewGraph()
	container := rdf.IRI(p.baseURL + containerPath)
	g.Add(rdf.T(container, rdf.IRI(rdf.RDFType), rdf.IRI(rdf.LDPContainer)))
	for _, e := range entries {
		g.Add(rdf.T(container, rdf.IRI(rdf.LDPContains), rdf.IRI(p.baseURL+e)))
	}
	return rdf.SerializeTurtle(g, map[string]string{
		"ldp": "http://www.w3.org/ns/ldp#",
	}), nil
}

// Stats reports resource count and total bytes, for experiments.
func (p *Pod) Stats() (count int, bytes int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, r := range p.resources {
		count++
		bytes += len(r.Data)
	}
	return count, bytes
}
