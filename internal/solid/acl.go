package solid

import "strings"

// WebID identifies an agent (e.g. "https://alice.pod/profile#me").
type WebID string

// AccessMode is a WAC access mode.
type AccessMode string

// The four WAC modes.
const (
	ModeRead    AccessMode = "Read"
	ModeWrite   AccessMode = "Write"
	ModeAppend  AccessMode = "Append"
	ModeControl AccessMode = "Control"
)

// Authorization is one WAC authorization: a set of agents (or the public)
// granted modes on a resource, optionally inherited by contained
// resources via default.
type Authorization struct {
	// ID names the authorization node within its document (fragment).
	ID string
	// Agents are the WebIDs granted access.
	Agents []WebID
	// Public grants access to every agent (acl:agentClass foaf:Agent).
	Public bool
	// AccessTo is the resource path the authorization applies to.
	AccessTo string
	// Default marks the authorization as inherited by resources contained
	// in AccessTo (which must be a container).
	Default bool
	// Modes are the granted access modes.
	Modes []AccessMode
}

// ACL is a parsed access control document.
type ACL struct {
	// Authorizations lists the document's authorization nodes.
	Authorizations []Authorization
}

// NewACL builds an ACL granting the owner full control of resourcePath.
// Additional authorizations can be appended.
func NewACL(owner WebID, resourcePath string) *ACL {
	return &ACL{Authorizations: []Authorization{{
		ID:       "owner",
		Agents:   []WebID{owner},
		AccessTo: resourcePath,
		Default:  true,
		Modes:    []AccessMode{ModeRead, ModeWrite, ModeControl},
	}}}
}

// Grant appends an authorization for the given agents.
func (a *ACL) Grant(id string, agents []WebID, resourcePath string, asDefault bool, modes ...AccessMode) {
	a.Authorizations = append(a.Authorizations, Authorization{
		ID:       id,
		Agents:   agents,
		AccessTo: resourcePath,
		Default:  asDefault,
		Modes:    modes,
	})
}

// GrantPublic appends a public authorization.
func (a *ACL) GrantPublic(id, resourcePath string, asDefault bool, modes ...AccessMode) {
	a.Authorizations = append(a.Authorizations, Authorization{
		ID:       id,
		Public:   true,
		AccessTo: resourcePath,
		Default:  asDefault,
		Modes:    modes,
	})
}

// Allows reports whether the ACL grants the agent the mode on the resource
// path. When inherited is true, only acl:default authorizations count (the
// document was found on an ancestor container), and only for resources
// contained in the authorization's stated target: an acl:default grant on
// /a/ never reaches /b/x just because the document was found along /b/x's
// ancestor walk. Granting Write implies Append (WAC mode subsumption).
func (a *ACL) Allows(agent WebID, path string, mode AccessMode, inherited bool) bool {
	for _, auth := range a.Authorizations {
		if inherited {
			if !auth.Default || !containsPath(auth.AccessTo, path) {
				continue
			}
		} else if auth.AccessTo != path {
			continue
		}
		if !auth.Public && !containsAgent(auth.Agents, agent) {
			continue
		}
		for _, m := range auth.Modes {
			if modeSatisfies(m, mode) {
				return true
			}
		}
	}
	return false
}

// modeSatisfies reports whether a granted mode covers the requested one:
// exact match, or Write covering Append.
func modeSatisfies(granted, want AccessMode) bool {
	return granted == want || (granted == ModeWrite && want == ModeAppend)
}

// containsPath reports whether p is the container itself or contained in
// it (at any depth).
func containsPath(container, p string) bool {
	if container == "/" {
		return true
	}
	if p == container {
		return true
	}
	return strings.HasPrefix(p, strings.TrimSuffix(container, "/")+"/")
}

func containsAgent(agents []WebID, agent WebID) bool {
	if agent == "" {
		return false
	}
	for _, a := range agents {
		if a == agent {
			return true
		}
	}
	return false
}
