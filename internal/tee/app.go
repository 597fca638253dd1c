package tee

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/distexchange"
	"repro/internal/policy"
	"repro/internal/simclock"
)

// Trusted application errors.
var (
	ErrNoCopy     = errors.New("tee: no copy of resource")
	ErrDeleted    = errors.New("tee: copy deleted")
	ErrUseRevoked = errors.New("tee: use revoked by policy update")
	ErrUseDenied  = errors.New("tee: use denied by policy")
)

// maxReportedEntries caps how many usage-log entries a single evidence
// report carries.
const maxReportedEntries = 256

// copyState is the enclave-resident bookkeeping for one resource copy.
// The resource bytes themselves live only in the sealed store.
type copyState struct {
	resourceIRI string
	pol         *policy.Policy
	retrievedAt time.Time
	useCount    uint64
	entries     []distexchange.UsageEntry
	deleted     bool
	deletedAt   time.Time
	useRevoked  bool
	cancelTimer func()
}

// App is the trusted application: it holds resource copies in trusted
// storage and enforces their usage policies locally — the enforcement
// point of the architecture. All uses flow through Use. A copy is erased
// when its policy's deletion deadline passes, on a timer or at the first
// Use after it; a policy update (ApplyPolicyUpdate) can erase it at once,
// revoke its use, or move the deadline.
type App struct {
	device  *Device
	purpose policy.Purpose
	clock   simclock.Clock

	mu     sync.Mutex
	copies map[string]*copyState
	// versionChanged is closed (and dropped) whenever a copy's enforced
	// policy version may have moved; WaitPolicyVersion makes it on demand,
	// so an app nobody waits on pays nothing. Guarded by mu.
	versionChanged chan struct{}

	// rogue disables deletion obligations (failure injection): the app
	// keeps data past its deadline, which policy monitoring must detect.
	rogue bool
}

// NewApp creates a trusted application on the device with a declared
// purpose of use.
func NewApp(device *Device, purpose policy.Purpose, clock simclock.Clock) *App {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &App{
		device:  device,
		purpose: purpose,
		clock:   clock,
		copies:  make(map[string]*copyState),
	}
}

// Device returns the hosting device.
func (a *App) Device() *Device { return a.device }

// SetRogue toggles deletion-obligation bypassing (failure injection for
// the monitoring experiments).
func (a *App) SetRogue(rogue bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rogue = rogue
}

func dataKey(iri string) string { return "data/" + iri }

// StoreResource places a retrieved resource copy under policy enforcement:
// the bytes are sealed into trusted storage and the deletion obligation
// (if any) is scheduled.
func (a *App) StoreResource(iri string, data []byte, pol *policy.Policy) error {
	if err := pol.Validate(); err != nil {
		return fmt.Errorf("tee: store %s: %w", iri, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if prior, ok := a.copies[iri]; ok && !prior.deleted {
		return fmt.Errorf("tee: copy of %s already stored", iri)
	}
	if err := a.device.store.Seal(dataKey(iri), data); err != nil {
		return err
	}
	st := &copyState{
		resourceIRI: iri,
		pol:         pol.Clone(),
		retrievedAt: a.clock.Now(),
	}
	a.copies[iri] = st
	a.signalVersionLocked()
	a.scheduleDeletionLocked(st)
	return nil
}

// scheduleDeletionLocked (re)arms the expiry timer for a copy. Caller
// holds a.mu.
func (a *App) scheduleDeletionLocked(st *copyState) {
	if st.cancelTimer != nil {
		st.cancelTimer()
		st.cancelTimer = nil
	}
	deadline, has := st.pol.DeleteDeadline(st.retrievedAt)
	if !has || st.deleted {
		return
	}
	delay := deadline.Sub(a.clock.Now())
	if delay < 0 {
		delay = 0
	}
	iri := st.resourceIRI
	st.cancelTimer = a.clock.AfterFunc(delay, func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		cur, ok := a.copies[iri]
		if !ok || cur.deleted || a.rogue {
			return
		}
		a.deleteLocked(cur)
	})
}

// deleteLocked erases the sealed bytes and tombstones the copy. Caller
// holds a.mu.
func (a *App) deleteLocked(st *copyState) {
	a.device.store.Delete(dataKey(st.resourceIRI))
	st.deleted = true
	st.deletedAt = a.clock.Now()
	if st.cancelTimer != nil {
		st.cancelTimer()
		st.cancelTimer = nil
	}
}

// Delete erases a copy on demand.
func (a *App) Delete(iri string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.copies[iri]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoCopy, iri)
	}
	if st.deleted {
		return fmt.Errorf("%w: %s", ErrDeleted, iri)
	}
	a.deleteLocked(st)
	return nil
}

// Use performs an action on a stored copy under policy control. On permit
// it returns the resource bytes; every attempt (permitted or denied) is
// logged for evidence.
func (a *App) Use(iri string, action policy.Action) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.copies[iri]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoCopy, iri)
	}
	if st.deleted {
		return nil, fmt.Errorf("%w: %s", ErrDeleted, iri)
	}
	now := a.clock.Now()
	entry := distexchange.UsageEntry{At: now, Action: action, Purpose: a.purpose}

	if st.useRevoked {
		st.entries = append(st.entries, entry)
		return nil, fmt.Errorf("%w: %s", ErrUseRevoked, iri)
	}
	decision := st.pol.Evaluate(policy.UsageContext{
		Now:         now,
		Purpose:     a.purpose,
		Action:      action,
		RetrievedAt: st.retrievedAt,
		PriorUses:   st.useCount,
	})
	if !decision.Allowed {
		st.entries = append(st.entries, entry)
		// A denial on expiry grounds means the deadline passed; enforce the
		// obligation immediately (unless rogue).
		if decision.Deny(policy.DenyExpired) && !a.rogue {
			a.deleteLocked(st)
		}
		return nil, fmt.Errorf("%w: %s", ErrUseDenied, decision)
	}
	data, err := a.device.store.Unseal(dataKey(iri))
	if err != nil {
		return nil, err
	}
	entry.Allowed = true
	st.entries = append(st.entries, entry)
	st.useCount++
	return data, nil
}

// ApplyPolicyUpdate installs a new policy version for a held copy and
// acts on it at once (the Fig. 2(5) device-side step): an update whose
// deletion deadline has already passed erases the copy (unless the app is
// rogue), one that no longer allows the app's purpose refuses every later
// Use with ErrUseRevoked, and the deletion timer is re-armed to the new
// deadline. Revocation is sticky: a later version that allows the purpose
// again does not restore use. A stale or duplicate version is ignored.
// Updates for resources this app does not hold return ErrNoCopy.
func (a *App) ApplyPolicyUpdate(newPol *policy.Policy) error {
	if err := newPol.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.copies[newPol.ResourceIRI]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoCopy, newPol.ResourceIRI)
	}
	if newPol.Version <= st.pol.Version {
		return nil
	}
	st.pol = newPol.Clone()
	a.signalVersionLocked()

	deadline, has := newPol.DeleteDeadline(st.retrievedAt)
	if has && a.clock.Now().After(deadline) && !st.deleted && !a.rogue {
		a.deleteLocked(st)
	}
	if !newPol.PermitsPurpose(a.purpose) {
		st.useRevoked = true
	}
	// Re-arm the deletion timer against the new policy unconditionally:
	// scheduleDeletionLocked cancels the previous timer first, so a policy
	// that dropped its retention deadline also cancels the stale timer
	// (otherwise the old deadline would still delete a copy the new policy
	// allows keeping).
	if !st.deleted {
		a.scheduleDeletionLocked(st)
	}
	return nil
}

// PolicyVersion returns the policy version enforced for a copy (0 if the
// resource is unknown).
func (a *App) PolicyVersion(iri string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.copies[iri]; ok {
		return st.pol.Version
	}
	return 0
}

// signalVersionLocked wakes every WaitPolicyVersion caller to re-read.
// Caller holds a.mu.
func (a *App) signalVersionLocked() {
	if a.versionChanged != nil {
		close(a.versionChanged)
		a.versionChanged = nil
	}
}

// WaitPolicyVersion blocks until the app enforces at least the given
// policy version for the resource, or ctx is done. It is woken by
// StoreResource and ApplyPolicyUpdate, not by a poll.
func (a *App) WaitPolicyVersion(ctx context.Context, iri string, version uint64) error {
	for {
		a.mu.Lock()
		if st, ok := a.copies[iri]; ok && st.pol.Version >= version {
			a.mu.Unlock()
			return nil
		}
		if a.versionChanged == nil {
			a.versionChanged = make(chan struct{})
		}
		changed := a.versionChanged
		a.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Holds reports whether a live (non-deleted) copy of the resource exists.
func (a *App) Holds(iri string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.copies[iri]
	return ok && !st.deleted
}

// Evidence builds and signs a compliance report for a resource, answering
// a monitoring round (Fig. 2(6)). The report is truthful even for rogue
// apps: the rogue failure mode modeled here is broken obligation
// execution, not a compromised enclave.
func (a *App) Evidence(iri string, round uint64) (distexchange.SignedEvidence, error) {
	a.mu.Lock()
	st, ok := a.copies[iri]
	if !ok {
		a.mu.Unlock()
		return distexchange.SignedEvidence{}, fmt.Errorf("%w: %s", ErrNoCopy, iri)
	}
	entries := st.entries
	if len(entries) > maxReportedEntries {
		entries = entries[len(entries)-maxReportedEntries:]
	}
	ev := distexchange.Evidence{
		ResourceIRI:   iri,
		Device:        a.device.Address(),
		Round:         round,
		PolicyVersion: st.pol.Version,
		StillStored:   !st.deleted,
		DeletedAt:     st.deletedAt,
		RetrievedAt:   st.retrievedAt,
		UseCount:      st.useCount,
		Entries:       append([]distexchange.UsageEntry(nil), entries...),
		GeneratedAt:   a.clock.Now(),
	}
	a.mu.Unlock()

	sig, err := a.device.key.Sign(ev.SigningBytes())
	if err != nil {
		return distexchange.SignedEvidence{}, err
	}
	return distexchange.SignedEvidence{Evidence: ev, Signature: sig}, nil
}
