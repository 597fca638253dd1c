// Package distexchange implements the DistExchange application (DE App) of
// the paper: the blockchain-resident component that records where data
// resides (pod and resource locations), declares the applicable usage
// policies, tracks which consumer devices hold copies, and monitors
// compliance with the policies — detecting and recording violations.
//
// The contract (see Contract) runs on the contract.Runtime; Client offers
// a typed Go API over a chain backend for off-chain components (pod
// managers and TEEs reach it through the oracles in package oracle).
//
// # Monitoring ledger layout
//
// A monitoring round (Fig. 2(6)) costs its targets, never the resource's
// history. Its state is split by how often it changes (numbers are
// zero-padded to 12 digits, so key order is numeric order; addresses are
// "0x" and 40 hex digits):
//
//	round/<iri>|<round>              MonitoringRound with Targets; written once
//	                                 by requestMonitoring, never rewritten
//	roundpend/<iri>|<round>|<device> one marker per target that has not
//	                                 answered yet; deleted by the target's
//	                                 first evidence for the open round
//	roundclosed/<iri>|<round>        the closure marker; written only by
//	                                 reportUnresponsive
//	ev/<iri>|<round>|<seq>           EvidenceRecord (round 0: unsolicited)
//	viol/<iri>|<round>|<seq>         Violation (round 0: unsolicited evidence)
//
// A round is closed when no pending marker remains or its closure marker
// exists; nothing else records its progress, so an answer writes no
// round-level key. The pending marker makes target membership an O(1)
// lookup: evidence from a device without one — not a target of the round,
// or a target that has answered already — is verified and recorded, but
// neither advances nor closes the round, and evidence after the closure
// marker deletes nothing, so nothing reopens a closed round.
// getMonitoringRound and reportUnresponsive assemble the MonitoringRound
// shape from these keys. Seq stays one counter per resource, so
// getEvidence and getViolations list a whole history in Seq order, or —
// given a round — only that round's key prefix.
//
// Every key is built for the access that uses it, by appending into the
// buffer Env.Key (ReadEnv.Key) hands out, which already holds the
// runtime's "0x<contract>/" namespace: the key builders in contract.go
// append their literal, the IRI, strconv's digits after the padding zeros
// and hex.AppendEncode's address, and the runtime looks the bytes up as
// they are. So a read allocates no key and a write allocates only the
// string the state stores; the bytes are those fmt and Address.String
// wrote before (TestKeyBuildersMatchFmtForms).
//
// submitEvidence takes a list of signed evidence — the pull-in oracle sends
// a round's as one transaction — and treats every item as a transaction of
// one evidence would be treated, in list order: the same checks, the same
// ev/ record, event, violations and round bookkeeping. It costs less gas:
// the list reads and writes each sequence counter it advances once, so
// every accepted item after its resource's first, and every violation
// after its resource's first, saves a counter read and write. An item
// it refuses (unregistered device, no grant, a signature that does not
// verify under the key the ledger holds) writes nothing and leaves the other
// items alone; the return value says, per item, the seq its record is
// stored under or why not.
// The transaction reverts only when no item was accepted, with the first
// refusal's text — which is all a list of one can do.
//
// # Record format
//
// A record's bytes live under its key, and only there: a query's reply
// carries them as they are stored, and the Decode functions read them
// off-chain. Events and return values name a record instead of copying it
// ("Events" below), except where their reader decodes the copy: the policy
// PolicyUpdated carries, and the MonitoringRound requestMonitoring emits and
// returns. The encoding
// (codec.go) is store's framing — shortest-form uvarints, length-prefixed
// strings, one-byte booleans, raw 20-byte addresses and 32-byte hashes,
// 16-byte UTC timestamps (store.AppendUTC; the zero time round-trips) —
// behind a one-byte tag, fields in this order:
//
//	0x21 PodRecord        ownerWebID, location, owner, registeredAt,
//	                      hasPolicy [, policy]
//	0x22 ResourceRecord   withdrawn, resource, podWebID, location,
//	                      description, owner, registeredAt,
//	                      hasPolicy [, policy]
//	0x23 DeviceRecord     device, deviceKey, measurement, registeredAt
//	0x24 Grant            resource, consumer, device, purpose, grantedAt,
//	                      retrievedAt, revoked
//	0x25 MonitoringRound  round, resource, requestedAt, closed,
//	                      n × target, n × responded
//	0x27 EvidenceRecord   seq, evidence (resource, device, round,
//	                      policyVersion, stillStored, deletedAt,
//	                      retrievedAt, useCount, n × (at, action, purpose,
//	                      allowed), generatedAt), verified, stored, round,
//	                      n × finding
//	0x28 Violation        seq, resource, device, kind, detail, detectedAt,
//	                      round
//	0x29 evidence outcomes n × (accepted, seq | refusal text); what
//	                      submitEvidence returns, never stored
//	0x20 policy           policy.AppendRecord; alone, the payload of
//	                      PolicyUpdated
//
// The three sequence counters are a bare uvarint, and a pending or closure
// marker the byte 1. Tag 0x26 is retired: it opened a round-progress
// record, and is not assigned again. A ResourceRecord ends with its policy, so PolicyUpdated carries
// a tail of the stored bytes, and opens with Withdrawn, which is all the
// market listing reads of a record. The methods that read only
// a resource's owner, withdrawn flag or policy version (registerResource's
// duplicate check, updatePolicy, withdrawResource, revokeGrant,
// requestMonitoring, reportUnresponsive) read its record in place and
// splice the stored bytes to rewrite it, and Client.ResourceListing reads a
// getResource reply in place; recordGrant and submitEvidence
// evaluate the policy, so they decode it — submitEvidence once for a run of
// items whose records are the same bytes ("Signature checks").
//
// Monitoring reads the rest of what it needs in place too. Three readers
// walk a whole stored record, refuse exactly what its full decoder
// refuses, with the same error, and copy nothing:
//
//	decodeResourceHead  ResourceRecord: withdrawn, owner, policy version
//	decodeGrantHead     Grant: device, retrievedAt, revoked
//	                    (requestMonitoring, submitEvidence)
//	decodeDeviceKey     DeviceRecord: a view of deviceKey, which
//	                    cryptoutil.ParsePublicKey copies if it keeps it
//	                    (submitEvidence)
//
// They, and the counter reads, are called directly, so
// their decoder stays on the stack; load, which decodes through a func
// value, puts one on the heap per call. A decoded policy's purposes and
// actions, and an evidence's usage entries, are the policy package's
// constants when they name one (policy.PurposeOf, policy.ActionOf). A listing
// (listResources, getGrants, getEvidence, getViolations) is a count
// followed by the stored encodings as they are; records delimit
// themselves. Every value has exactly one encoding, so sizes — and with
// them gas — follow from the workload alone. There is no second decoder: a value that opens with
// another byte, the '{' of a record written before this format included,
// reverts the transaction that reads it with "corrupt record at <key>".
//
// # Events
//
// Six topics. Each event's key is the identifier below, and only the two
// whose subscriber decodes the payload carry one; the others say what
// changed and where, and a reader that wants the record queries its key.
//
//	topic               key         data              subscriber
//	PodRegistered       ownerWebID  none              tests
//	ResourceRegistered  resource    none              tests
//	PolicyUpdated       resource    the new policy    each holder's TEE,
//	                                                  through core's push-out
//	MonitoringRequested resource    MonitoringRound   the pull-in oracle
//	EvidenceRecorded    resource    round, seq        the pod manager's
//	                                                  WaitForRoundClosure, as
//	                                                  a wake-up
//	ViolationDetected   resource    round, seq        tests
//
// Round and seq are two uvarints; with the resource they name the
// record's ledger key, ev/<iri>|<round>|<seq> or viol/<iri>|<round>|<seq>.
// Registering a device, recording, confirming or revoking a grant and
// withdrawing a resource emit nothing: no subscriber would read it. A
// guard test in internal/lint (TestEveryTopicIsSubscribed) fails on a
// topic that no event filter names.
//
// # Argument format
//
// A method's or a query's arguments (the …Args types below) have one binary
// encoding too, in the same framing but with no tag: the method name
// selects the decoder (args.go). Each …Args type appends its own with a
// value-receiver AppendArgs, which chain.NewTx calls for a transaction and
// Client for a query; the contract decodes exactly those bytes, or reverts
// the transaction (fails the query) with "bad args: …". There is no JSON
// fallback. Fields follow in this order; an optional one is a boolean, then
// the value when it is true:
//
//	registerPod          ownerWebID, location, hasPolicy [, policy]
//	registerResource     resource, podWebID, location, description,
//	                     hasPolicy [, policy]
//	updatePolicy         resource, hasPolicy [, policy]
//	registerDevice       certificate (a byte string)
//	recordGrant          resource, consumer, device, purpose
//	revokeGrant          resource, device
//	submitEvidence       n × (evidence as an EvidenceRecord holds it,
//	                     signature as a byte string)
//	reportUnresponsive,  resource, round
//	getMonitoringRound
//	getViolations,       resource, hasRound [, round]
//	getEvidence
//	getDevice            device
//	getPod               ownerWebID
//	listResources        none: the reply lists every resource not
//	                     withdrawn
//	every other method   resource
//
// A policy is policy.AppendRecord's encoding. As with records, every value
// has exactly one encoding, so calldata gas follows from the workload —
// except for the ASN.1 signatures, whose length varies by a byte or two:
// the manufacturer's that ends the certificate (cryptoutil's one encoding
// of it) and the device's on each evidence.
//
// # Signature checks
//
// The contract checks two signatures: the manufacturer's on a device
// certificate (registerDevice) and the device's on each evidence of a list
// (submitEvidence). Each covers its object's encoding up to the signature:
// the certificate's (cryptoutil.Certificate.SigningBytes), and for
// evidence tagEvidence followed by the bytes a submitEvidence item carries
// before its signature (Evidence.SigningBytes). The tag keeps evidence
// apart from what the same device key signs otherwise; no record is ever
// signed. Both are re-executed on the same bytes by every validator, so
// both go through cryptoutil.VerifyCached, which answers a repeat
// sighting from the process's table of verified signatures. That
// cannot change an outcome: a table hit means this process already ran
// the ECDSA verification on exactly this key, message and signature and it
// passed, and the contract decides everything else on every execution —
// which key the ledger holds for the device at that point, whether there
// is a grant, whether the certificate is valid at the block's time. A
// validator in a process of its own simply pays for each first sighting
// itself. The soundness argument is written out in chain/doc.go
// ("Signatures a block carries") and the cryptoutil package comment.
//
// A list's device signatures are checked together, on the verifier pool
// that admission and block validation use (cryptoutil.VerifyAll), so a
// round's sixteen first sightings cost the proposer about sixteen divided
// by its cores. submitEvidence runs in three passes to allow it: a serial
// check pass reads each item's resource, device and grant and charges for
// them as before; the verify pass checks the signatures of the items still
// standing, each worker writing only the items it claimed; a serial record
// pass writes, emits and advances the round in list order. No write touches
// a key the check pass reads, so every item is judged as it would be alone,
// and the receipt — status, gas, revert text, return value, events — the
// state root and the net diff are the same at every pool width
// (TestEvidencePassesReceiptIdentity).
//
// The check pass reads every item's resource record, but decodes it only
// when its bytes differ from those of the record it decoded last: once for
// a round's list, which names one resource throughout, and once per run of
// items if a list interleaves resources. Items with equal bytes share the
// decoded record, which nothing writes. Gas is charged for the read, per
// item as before, and never for decoding, so receipts do not change
// (TestEvidenceListInterleavedResources, TestSubmitEvidenceMarginalAllocations).
package distexchange

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

// ContractName is the runtime deployment name of the DE App.
const ContractName = "distexchange"

// Event topics emitted by the DE App; the package comment ("Events") gives
// each one's key, data and subscriber.
const (
	TopicPodRegistered       = "PodRegistered"
	TopicResourceRegistered  = "ResourceRegistered"
	TopicPolicyUpdated       = "PolicyUpdated"
	TopicMonitoringRequested = "MonitoringRequested"
	TopicEvidenceRecorded    = "EvidenceRecorded"
	TopicViolationDetected   = "ViolationDetected"
)

// PodRecord is the on-chain registration of a Solid pod.
type PodRecord struct {
	// OwnerWebID is the pod owner's WebID.
	OwnerWebID string `json:"ownerWebID"`
	// Location is the pod's root URL.
	Location string `json:"location"`
	// Owner is the blockchain address controlling the registration.
	Owner cryptoutil.Address `json:"owner"`
	// DefaultPolicy is the pod-wide default usage policy.
	DefaultPolicy *policy.Policy `json:"defaultPolicy,omitempty"`
	// RegisteredAt is the block timestamp of registration.
	RegisteredAt time.Time `json:"registeredAt"`
}

// ResourceRecord is the on-chain index entry for a published resource.
type ResourceRecord struct {
	// ResourceIRI identifies the resource.
	ResourceIRI string `json:"resource"`
	// PodWebID names the owning pod.
	PodWebID string `json:"podWebID"`
	// Location is the resource's web location inside the pod.
	Location string `json:"location"`
	// Description is free-form market metadata.
	Description string `json:"description,omitempty"`
	// Owner is the publishing blockchain address.
	Owner cryptoutil.Address `json:"owner"`
	// Policy is the currently applicable usage policy.
	Policy *policy.Policy `json:"policy"`
	// RegisteredAt is the block timestamp of publication.
	RegisteredAt time.Time `json:"registeredAt"`
	// Withdrawn marks resources removed from the market index; existing
	// copies remain governed by the last published policy.
	Withdrawn bool `json:"withdrawn,omitempty"`
}

// DeviceRecord registers a consumer TEE device, rooted in a manufacturer
// certificate.
type DeviceRecord struct {
	// Device is the device's blockchain address (derived from its key).
	Device cryptoutil.Address `json:"device"`
	// DeviceKey is the device public key used to verify evidence.
	DeviceKey []byte `json:"deviceKey"`
	// Measurement is the attested TEE code measurement.
	Measurement cryptoutil.Hash `json:"measurement"`
	// RegisteredAt is the block timestamp of registration.
	RegisteredAt time.Time `json:"registeredAt"`
}

// Grant records that a consumer device was granted access to (and may hold
// a copy of) a resource.
type Grant struct {
	// ResourceIRI is the granted resource.
	ResourceIRI string `json:"resource"`
	// Consumer is the consumer's blockchain address.
	Consumer cryptoutil.Address `json:"consumer"`
	// Device is the consumer's TEE device address.
	Device cryptoutil.Address `json:"device"`
	// Purpose is the consumer's declared purpose of use.
	Purpose policy.Purpose `json:"purpose"`
	// GrantedAt is when the grant was recorded on-chain.
	GrantedAt time.Time `json:"grantedAt"`
	// RetrievedAt is when the device confirmed physical retrieval (zero
	// until confirmed).
	RetrievedAt time.Time `json:"retrievedAt,omitempty"`
	// Revoked marks administratively revoked grants.
	Revoked bool `json:"revoked,omitempty"`
}

// UsageEntry is one use of a resource copy, logged by the TEE.
type UsageEntry struct {
	At      time.Time      `json:"at"`
	Action  policy.Action  `json:"action"`
	Purpose policy.Purpose `json:"purpose"`
	// Allowed records the TEE's own policy decision for the use.
	Allowed bool `json:"allowed"`
}

// Evidence is the compliance report a TEE produces during policy
// monitoring (Fig. 2(6)).
type Evidence struct {
	// ResourceIRI is the monitored resource.
	ResourceIRI string `json:"resource"`
	// Device is the reporting TEE device.
	Device cryptoutil.Address `json:"device"`
	// Round is the monitoring round this evidence answers.
	Round uint64 `json:"round"`
	// PolicyVersion is the policy version the TEE is enforcing.
	PolicyVersion uint64 `json:"policyVersion"`
	// StillStored reports whether the copy is still in trusted storage.
	StillStored bool `json:"stillStored"`
	// DeletedAt is when the copy was deleted (zero if StillStored).
	DeletedAt time.Time `json:"deletedAt,omitempty"`
	// RetrievedAt is when the copy was originally obtained.
	RetrievedAt time.Time `json:"retrievedAt"`
	// UseCount is the total number of uses so far.
	UseCount uint64 `json:"useCount"`
	// Entries lists individual uses (may be capped by the TEE).
	Entries []UsageEntry `json:"entries,omitempty"`
	// GeneratedAt is the TEE-local generation time.
	GeneratedAt time.Time `json:"generatedAt"`
}

// SigningBytes returns the bytes the device signs: tagEvidence, then the
// evidence as a submitEvidence item and an EvidenceRecord carry it
// (appendEvidence). The tag keeps them apart from the other forms the
// device key signs (Tx, Quote).
func (e *Evidence) SigningBytes() []byte {
	return appendEvidence(append(make([]byte, 0, evidenceRecordSize(e, 0)), tagEvidence), e)
}

// SignedEvidence bundles evidence with the device signature.
type SignedEvidence struct {
	Evidence Evidence `json:"evidence"`
	// Signature is the device's ECDSA signature over Evidence.SigningBytes.
	Signature []byte `json:"signature"`

	// signing is Evidence.SigningBytes as decodeSubmitEvidenceArgs read it
	// from the arguments; nil on evidence built otherwise.
	signing []byte
}

// ViolationKind classifies a detected policy violation.
type ViolationKind string

// Violation kinds detected by the DE App.
const (
	// ViolationRetention: the copy outlived its deletion deadline.
	ViolationRetention ViolationKind = "retention"
	// ViolationPurpose: a use was performed for a disallowed purpose.
	ViolationPurpose ViolationKind = "purpose"
	// ViolationMaxUses: the use count exceeded the policy's cap.
	ViolationMaxUses ViolationKind = "max-uses"
	// ViolationUnresponsive: a holder failed to answer a monitoring round.
	ViolationUnresponsive ViolationKind = "unresponsive"
	// ViolationStalePolicy: the holder enforces an outdated policy version
	// beyond the allowed lag.
	ViolationStalePolicy ViolationKind = "stale-policy"
)

// Violation is an on-chain violation record.
type Violation struct {
	// Seq is the per-resource violation sequence number.
	Seq uint64 `json:"seq"`
	// ResourceIRI is the violated resource.
	ResourceIRI string `json:"resource"`
	// Device is the offending holder.
	Device cryptoutil.Address `json:"device"`
	// Kind classifies the violation.
	Kind ViolationKind `json:"kind"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
	// DetectedAt is the block timestamp of detection.
	DetectedAt time.Time `json:"detectedAt"`
	// Round is the monitoring round that surfaced it (0 if none).
	Round uint64 `json:"round,omitempty"`
}

// MonitoringRound is the on-chain record of a Fig. 2(6) monitoring run.
type MonitoringRound struct {
	// Round is the per-resource round number, starting at 1.
	Round uint64 `json:"round"`
	// ResourceIRI is the monitored resource.
	ResourceIRI string `json:"resource"`
	// RequestedAt is the block timestamp of the request.
	RequestedAt time.Time `json:"requestedAt"`
	// Targets are the devices expected to report.
	Targets []cryptoutil.Address `json:"targets"`
	// Responded are the targets that already reported, in target order
	// (not arrival order). Evidence from a device that is not a target is
	// recorded but never listed here.
	Responded []cryptoutil.Address `json:"responded,omitempty"`
	// Closed marks completed rounds.
	Closed bool `json:"closed,omitempty"`
}

// --- Method argument and result types (the contract ABI). ---

// RegisterPodArgs registers a pod (Fig. 2(1), pod initiation).
type RegisterPodArgs struct {
	OwnerWebID    string
	Location      string
	DefaultPolicy *policy.Policy
}

// RegisterResourceArgs publishes a resource (Fig. 2(2), resource
// initiation).
type RegisterResourceArgs struct {
	ResourceIRI string
	PodWebID    string
	Location    string
	Description string
	Policy      *policy.Policy
}

// WithdrawResourceArgs removes a resource from the market index. Grants
// and monitoring history survive: holders still hold copies under the
// last published policy, and the owner can keep monitoring them, but no
// new grants can be recorded and indexing no longer finds the resource.
type WithdrawResourceArgs struct {
	ResourceIRI string
}

// UpdatePolicyArgs replaces a resource's policy (Fig. 2(5)).
type UpdatePolicyArgs struct {
	ResourceIRI string
	Policy      *policy.Policy
}

// RegisterDeviceArgs registers a TEE device with its attestation
// certificate chain (certificate issued by the trusted manufacturer CA).
type RegisterDeviceArgs struct {
	// Certificate is the manufacturer certificate binding the device key to
	// its measurement, as cryptoutil.Certificate.Encode writes it. The
	// arguments carry it as one byte string.
	Certificate []byte
}

// RecordGrantArgs records that access was granted to a device.
type RecordGrantArgs struct {
	ResourceIRI string
	Consumer    cryptoutil.Address
	Device      cryptoutil.Address
	Purpose     policy.Purpose
}

// ConfirmRetrievalArgs confirms physical retrieval by the sender device.
type ConfirmRetrievalArgs struct {
	ResourceIRI string
}

// RevokeGrantArgs revokes a device's grant.
type RevokeGrantArgs struct {
	ResourceIRI string
	Device      cryptoutil.Address
}

// RequestMonitoringArgs starts a monitoring round (Fig. 2(6)).
type RequestMonitoringArgs struct {
	ResourceIRI string
}

// SubmitEvidenceArgs delivers a list of signed evidence: typically every
// answer to one monitoring round. A single evidence is a list of one.
type SubmitEvidenceArgs struct {
	Signed []SignedEvidence
}

// ReportUnresponsiveArgs closes a round, flagging non-reporting targets.
type ReportUnresponsiveArgs struct {
	ResourceIRI string
	Round       uint64
}

// GetPodArgs, GetResourceArgs, etc. parameterize read-only queries.
type (
	// GetPodArgs fetches a pod record.
	GetPodArgs struct {
		OwnerWebID string
	}
	// GetResourceArgs fetches a resource record (resource indexing,
	// Fig. 2(3)).
	GetResourceArgs struct {
		ResourceIRI string
	}
	// GetGrantsArgs lists grants for a resource.
	GetGrantsArgs struct {
		ResourceIRI string
	}
	// GetDeviceArgs fetches a device record.
	GetDeviceArgs struct {
		Device cryptoutil.Address
	}
	// GetViolationsArgs lists violations for a resource, in Seq order.
	GetViolationsArgs struct {
		ResourceIRI string
		// Round, when set, restricts the listing to violations surfaced by
		// that monitoring round (0: by unsolicited evidence).
		Round *uint64
	}
	// GetEvidenceArgs lists recorded evidence for a resource, in Seq order.
	GetEvidenceArgs struct {
		ResourceIRI string
		// Round, when set, restricts the listing to evidence answering that
		// monitoring round (0: unsolicited evidence).
		Round *uint64
	}
	// GetMonitoringRoundArgs fetches one monitoring round.
	GetMonitoringRoundArgs struct {
		ResourceIRI string
		Round       uint64
	}
)

// EvidenceRecord is a stored, verified evidence submission.
type EvidenceRecord struct {
	Seq      uint64          `json:"seq"`
	Evidence Evidence        `json:"evidence"`
	Verified bool            `json:"verified"`
	Stored   time.Time       `json:"stored"`
	Round    uint64          `json:"round"`
	Findings []ViolationKind `json:"findings,omitempty"`
}
