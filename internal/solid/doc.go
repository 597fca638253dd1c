// Package solid implements the Solid substrate: personal online datastores
// (pods) holding a hierarchical resource tree, Web Access Control (WAC)
// authorizations, and an LDP-style HTTP server and client for the Solid
// communication rules the paper's architecture builds on.
//
// The package reproduces exactly the subset of the Solid protocol the
// architecture needs: agents identified by WebIDs perform HTTP CRUD on pod
// resources, and the pod decides access by evaluating ACL documents with
// acl:accessTo / acl:default inheritance, acl:agent / acl:agentClass
// subjects, and the Read/Write/Append/Control modes (Write implies
// Append). GET answers carry ETag and Last-Modified validators and honour
// If-None-Match / If-Modified-Since, so a client that sends a validator
// is not re-sent an unchanged resource; POST appends
// (to a resource) or mints a contained resource (on a container, LDP
// style).
//
// # One copy per hop
//
// A body crosses each hop with one copy. A stored body is never written
// again (every mutation stores a fresh one), so GET writes it straight
// from the pod, with its Content-Length, and HEAD answers the same
// headers without it. Client and server read a body of declared length
// into one buffer of that size; a body of unknown length, or one declared
// larger than 1 MiB, grows as it arrives, so a header alone reserves no
// memory. Pod.Get hands its caller a copy; Pod.Exists checks that a
// resource is there without reading it.
//
// # Multi-pod hosting
//
// Host serves any number of pods behind one http.Handler — the paper's
// deployment shape, where a single provider hosts the pods of many users.
// Pods mount at /pods/{owner}/; the Host rewrites the URL to the
// pod-relative path before delegating to the pod's Server, while the
// original request path remains the signature target, so a credential
// captured for one pod can never validate on another. The Host only
// routes: pods live in one map under one RWMutex, and Mount(name,
// server) is the one way in, handing the host's instruments to the
// server and its pod. Whoever builds a pod (NewPod, or OpenPod for a
// durable one) mounts its server and closes its store.
//
// # Authorization cache
//
// Pod.Authorize memoizes decisions in a generation-stamped cache keyed by
// (agent, path, mode). The invalidation contract: every mutation of pod
// state — SetACL, Put, Delete, Append — bumps the pod's ACL generation,
// which orphans all cached decisions at once; a cached entry is only
// served while its stamp equals the current generation, and entries are
// stamped with the generation observed *before* evaluation, so a decision
// computed against newer state under an older stamp is ignored, never
// trusted. The hot read path therefore costs one map lookup instead of an
// ancestor walk plus a linear authorization scan; the repo benchmark
// reads the hit ratio off solid.auth_cache_hit_ratio.
//
// # Authentication and replay protection
//
// Requests are signed over "method|path|date|nonce" and carry no key:
// the server verifies under the key its AgentDirectory holds for the X-Agent
// WebID, the one source of an agent's key. The server rejects
// timestamps outside MaxClockSkew and remembers each agent's verified
// nonces within the window, so a captured request cannot be replayed
// verbatim; only successfully verified requests consume their nonce.
// Guard memory is bounded per agent, and capacity eviction is strictly
// per agent: flooding can only ever weaken the flooding agent's own
// replay protection, never another agent's.
//
// # Concurrency contract
//
// Pod, Server and Host are safe for concurrent use: each guards its
// state with RWMutexes, so reads run in parallel and HTTP handlers may
// be served from any number of goroutines. Individual operations are
// atomic — a Get observes either all or none of a concurrent Put — but
// the package offers no multi-resource transactions: a reader walking a
// container while a writer updates two resources may observe the
// intermediate state.
// Client is a thin wrapper over http.Client plus a signing key; it is
// safe for concurrent use as long as Decorate is not reassigned
// mid-flight.
//
// # Durability
//
// Every mutation — Put, Append, Delete, SetACL — builds one op (the
// stored bytes, the deleted path, the installed ACL, a minted POST
// name) and commits it: a durable pod appends the op to its op log
// first, then applies it with the same function OpenPod replays the log
// through, so what a live pod serves and what a restarted pod serves
// come from one piece of code. An op the log refuses fails the mutation
// and changes nothing, not even the POST counter. A pod opened with
// OpenPod writes full-content snapshots when the log tail has outgrown
// the last one (store.SnapshotDue, the chain's rule), and replays only
// the tail past the newest. A restarted pod serves byte-identical
// resources with identical ETags, reports the same ACL generation, and
// never re-mints a POST-assigned child name. Replay re-checks nothing: authorization
// happened before the op was built. Op records and snapshots have one
// binary encoding each (codec.go): times are written as their UTC
// instant and ACLs field by field. A pod dir whose op log opens with a
// record of an earlier format fails OpenPod ("start from an empty
// directory") and is left as it was.
package solid
