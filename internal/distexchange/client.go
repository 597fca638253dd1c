package distexchange

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Backend abstracts the blockchain node access the client needs. It is
// satisfied by *chain.Node directly and by the oracle components that
// relay to one.
type Backend interface {
	// Submit hands signed transactions to the chain and answers per
	// transaction, admitting what it can (see chain.Node.Submit).
	Submit(txs []*chain.Tx) []chain.TxVerdict
	WaitForReceipt(ctx context.Context, txHash cryptoutil.Hash) (*chain.Receipt, error)
	Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error)
	NonceFor(addr cryptoutil.Address) uint64
}

var _ Backend = (*chain.Node)(nil)

// DefaultGasLimit is the per-transaction gas limit used by the client.
// DE App methods are small; evidence submissions with long usage logs are
// the largest and stay well under this bound.
const DefaultGasLimit = 5_000_000

// Client is a typed API over the DE App contract for one key holder.
// It is safe for concurrent use.
type Client struct {
	backend  Backend
	key      *cryptoutil.KeyPair
	contract cryptoutil.Address
	gas      uint64

	mu sync.Mutex // serializes nonce acquisition + submission
}

// NewClient builds a client for the DE App deployed at the conventional
// address (AddressFor(ContractName) via the contract runtime).
func NewClient(backend Backend, key *cryptoutil.KeyPair, contractAddr cryptoutil.Address) *Client {
	return &Client{backend: backend, key: key, contract: contractAddr, gas: DefaultGasLimit}
}

// Address returns the client's sender address.
func (c *Client) Address() cryptoutil.Address { return c.key.Address() }

// RevertError is returned when a transaction is included but reverted.
type RevertError struct {
	Method string
	Reason string
}

// Error implements error.
func (e *RevertError) Error() string {
	return fmt.Sprintf("distexchange: %s reverted: %s", e.Method, e.Reason)
}

// call submits a transaction — a batch of one — and waits for its receipt.
func (c *Client) call(ctx context.Context, method string, args any) (*chain.Receipt, error) {
	c.mu.Lock()
	nonce := c.backend.NonceFor(c.key.Address())
	tx, err := chain.NewTx(c.key, nonce, c.contract, method, args, c.gas)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	v := c.backend.Submit([]*chain.Tx{tx})[0]
	c.mu.Unlock()
	if v.Err != nil {
		return nil, fmt.Errorf("distexchange: submit %s: %w", method, v.Err)
	}
	receipt, err := c.backend.WaitForReceipt(ctx, v.Hash)
	if err != nil {
		return nil, fmt.Errorf("distexchange: wait %s: %w", method, err)
	}
	if !receipt.Succeeded() {
		return receipt, &RevertError{Method: method, Reason: receipt.Err}
	}
	return receipt, nil
}

const methodSubmitEvidence = "submitEvidence"

// query runs a read-only method and decodes its reply, the DE App's record
// encoding, with decode.
func query[A interface{ AppendArgs([]byte) []byte }, T any](c *Client, method string, args A, decode func([]byte) (T, error)) (v T, err error) {
	reply, err := c.backend.Query(c.contract, method, args.AppendArgs(nil))
	if err != nil {
		return v, err
	}
	return decode(reply)
}

// RegisterPod performs the on-chain half of pod initiation (Fig. 2(1)).
func (c *Client) RegisterPod(ctx context.Context, args RegisterPodArgs) (*chain.Receipt, error) {
	return c.call(ctx, "registerPod", args)
}

// RegisterResource performs resource initiation (Fig. 2(2)).
func (c *Client) RegisterResource(ctx context.Context, args RegisterResourceArgs) (*chain.Receipt, error) {
	return c.call(ctx, "registerResource", args)
}

// WithdrawResource removes a resource from the market index; existing
// grants and monitoring remain valid.
func (c *Client) WithdrawResource(ctx context.Context, resourceIRI string) (*chain.Receipt, error) {
	return c.call(ctx, "withdrawResource", WithdrawResourceArgs{ResourceIRI: resourceIRI})
}

// UpdatePolicy performs policy modification (Fig. 2(5)).
func (c *Client) UpdatePolicy(ctx context.Context, args UpdatePolicyArgs) (*chain.Receipt, error) {
	return c.call(ctx, "updatePolicy", args)
}

// RegisterDevice registers the sender as an attested TEE device.
func (c *Client) RegisterDevice(ctx context.Context, certificate []byte) (*chain.Receipt, error) {
	return c.call(ctx, "registerDevice", RegisterDeviceArgs{Certificate: certificate})
}

// RecordGrant records an access grant for a device.
func (c *Client) RecordGrant(ctx context.Context, args RecordGrantArgs) (*chain.Receipt, error) {
	return c.call(ctx, "recordGrant", args)
}

// ConfirmRetrieval confirms the sender device obtained its copy.
func (c *Client) ConfirmRetrieval(ctx context.Context, resourceIRI string) (*chain.Receipt, error) {
	return c.call(ctx, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: resourceIRI})
}

// RevokeGrant revokes a device's grant.
func (c *Client) RevokeGrant(ctx context.Context, args RevokeGrantArgs) (*chain.Receipt, error) {
	return c.call(ctx, "revokeGrant", args)
}

// RequestMonitoring starts a monitoring round (Fig. 2(6)) and returns it.
func (c *Client) RequestMonitoring(ctx context.Context, resourceIRI string) (MonitoringRound, error) {
	receipt, err := c.call(ctx, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: resourceIRI})
	if err != nil {
		return MonitoringRound{}, err
	}
	round, err := DecodeMonitoringRound(receipt.Return)
	if err != nil {
		return MonitoringRound{}, fmt.Errorf("distexchange: decode round: %w", err)
	}
	return round, nil
}

// SubmitEvidence delivers signed compliance evidence, a list of one, and
// returns the seq its record is stored under.
func (c *Client) SubmitEvidence(ctx context.Context, signed SignedEvidence) (uint64, error) {
	out := c.SubmitEvidenceBatch(ctx, []SignedEvidence{signed})[0]
	return out.Seq, out.Err
}

// EvidenceOutcome is the fate of one evidence of a submitEvidence list.
type EvidenceOutcome struct {
	// Seq is the per-resource sequence number of an accepted evidence's
	// record: with its resource and round, it names the record's ledger
	// key, and GetRoundEvidence lists the record.
	Seq uint64
	// Err is a *RevertError when the contract refused this evidence: with
	// its own reason when the transaction accepted another, with the
	// transaction's — the first refusal's — when it accepted none. Any other
	// error is the transaction's admission or wait error.
	Err error
}

// SubmitEvidenceBatch delivers several signed evidence — typically one
// monitoring round's — as one submitEvidence transaction. Outcomes parallel
// the input; evidence the contract refuses does not affect the rest. A list
// that might not fit the gas limit goes as consecutive transactions, each
// awaited before the next is signed.
func (c *Client) SubmitEvidenceBatch(ctx context.Context, signed []SignedEvidence) []EvidenceOutcome {
	out := make([]EvidenceOutcome, 0, len(signed))
	for start := 0; start < len(signed); {
		end, gas := start, evidenceTxGas
		for end < len(signed) {
			gas += evidenceGasBound(&signed[end])
			if gas > c.gas && end > start {
				break
			}
			end++
		}
		out = c.submitEvidence(ctx, out, signed[start:end])
		start = end
	}
	return out
}

// submitEvidence makes one submitEvidence call and appends its outcomes, one
// per item, to out.
func (c *Client) submitEvidence(ctx context.Context, out []EvidenceOutcome, signed []SignedEvidence) []EvidenceOutcome {
	receipt, err := c.call(ctx, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed})
	if err != nil {
		return failedEvidence(out, len(signed), err)
	}
	outcomes, err := DecodeEvidenceOutcomes(receipt.Return)
	if err == nil && len(outcomes) != len(signed) {
		err = fmt.Errorf("%d outcomes for %d evidence", len(outcomes), len(signed))
	}
	if err != nil {
		return failedEvidence(out, len(signed), fmt.Errorf("distexchange: decode evidence outcomes: %w", err))
	}
	return append(out, outcomes...)
}

// failedEvidence appends n outcomes that share err.
func failedEvidence(out []EvidenceOutcome, n int, err error) []EvidenceOutcome {
	for range n {
		out = append(out, EvidenceOutcome{Err: err})
	}
	return out
}

// evidenceTxGas bounds what a submitEvidence transaction costs before its
// first item: the base charge and the calldata of the list's count, a
// uvarint of at most binary.MaxVarintLen64 bytes. Items follow the count
// with nothing between them.
const evidenceTxGas = chain.GasTxBase + binary.MaxVarintLen64*chain.GasPerArgByte

// evidenceGasBound bounds from above the gas one item of a submitEvidence
// list can cost: its calldata, and everything Contract.recordEvidence
// charges when the evidence is accepted, breaks the policy in all four ways
// and answers an open round.
func evidenceGasBound(s *SignedEvidence) uint64 {
	const (
		// A counter's read and its write of a uvarint. A list reads and
		// writes each counter once, so charging every item and finding
		// for one keeps the bound above what an item costs.
		counter = chain.GasStorageGet + chain.GasStorageSet + 10*chain.GasStoragePerByte
		// Stale policy, retention, purpose and usage cap.
		findings = 4
		// The kind and detail of a violation found in evidence, the longest
		// kind and the widest numbers.
		violationText = len(ViolationStalePolicy) + len("evidence # round ") + 2*20
	)
	// A record is stored once, and an event names it by its round and seq.
	record := func(size int) uint64 {
		return chain.GasStorageSet + uint64(size)*chain.GasStoragePerByte +
			chain.GasEventBase + ledgerRefSize*chain.GasEventPerByte
	}
	e := &s.Evidence
	return uint64(signedEvidenceSize(s))*chain.GasPerArgByte +
		3*chain.GasStorageGet + // resource, device, grant
		counter + record(evidenceRecordSize(e, findings)) +
		findings*(counter+record(fixedSize+len(e.ResourceIRI)+violationText)) +
		// noteResponse: the pending marker read and deleted, the closure
		// marker read.
		2*chain.GasStorageGet + chain.GasStorageDelete
}

// ReportUnresponsive closes a round, flagging silent holders.
func (c *Client) ReportUnresponsive(ctx context.Context, resourceIRI string, round uint64) (*chain.Receipt, error) {
	return c.call(ctx, "reportUnresponsive", ReportUnresponsiveArgs{ResourceIRI: resourceIRI, Round: round})
}

// GetPod fetches a pod record.
func (c *Client) GetPod(ownerWebID string) (PodRecord, error) {
	return query(c, "getPod", GetPodArgs{OwnerWebID: ownerWebID}, DecodePodRecord)
}

// GetResource fetches a resource record with its current policy
// (resource indexing, Fig. 2(3)).
func (c *Client) GetResource(resourceIRI string) (ResourceRecord, error) {
	return query(c, "getResource", GetResourceArgs{ResourceIRI: resourceIRI}, DecodeResourceRecord)
}

// ResourceListing reads who registered a resource and whether the DE App
// lists it, that is, has not withdrawn it. A missing record wraps
// ErrNotFound, as GetResource's does. The reply is read in place
// (decodeResourceHead) and its policy is not decoded, so a read allocates
// the arguments and the reply alone: a pod manager's access hook asks on
// every consumer request.
func (c *Client) ResourceListing(resourceIRI string) (owner cryptoutil.Address, listed bool, err error) {
	h, err := query(c, "getResource", GetResourceArgs{ResourceIRI: resourceIRI}, decodeResourceHead)
	return h.owner, err == nil && !h.withdrawn, err
}

// ListResources lists every resource not withdrawn.
func (c *Client) ListResources() ([]ResourceRecord, error) {
	reply, err := c.backend.Query(c.contract, "listResources", nil)
	if err != nil {
		return nil, err
	}
	return DecodeResourceRecords(reply)
}

// GetGrants lists grants for a resource.
func (c *Client) GetGrants(resourceIRI string) ([]Grant, error) {
	return query(c, "getGrants", GetGrantsArgs{ResourceIRI: resourceIRI}, DecodeGrants)
}

// GetDevice fetches a device record.
func (c *Client) GetDevice(device cryptoutil.Address) (DeviceRecord, error) {
	return query(c, "getDevice", GetDeviceArgs{Device: device}, DecodeDeviceRecord)
}

// GetViolations lists every violation recorded for a resource.
func (c *Client) GetViolations(resourceIRI string) ([]Violation, error) {
	return query(c, "getViolations", GetViolationsArgs{ResourceIRI: resourceIRI}, DecodeViolations)
}

// GetRoundViolations lists the violations one monitoring round surfaced.
// Its cost follows the round's size, not the resource's history.
func (c *Client) GetRoundViolations(resourceIRI string, round uint64) ([]Violation, error) {
	return query(c, "getViolations", GetViolationsArgs{ResourceIRI: resourceIRI, Round: &round}, DecodeViolations)
}

// GetEvidence lists every verified evidence record for a resource.
func (c *Client) GetEvidence(resourceIRI string) ([]EvidenceRecord, error) {
	return query(c, "getEvidence", GetEvidenceArgs{ResourceIRI: resourceIRI}, DecodeEvidenceRecords)
}

// GetRoundEvidence lists the evidence answering one monitoring round
// (round 0: unsolicited evidence). Its cost follows the round's size, not
// the resource's history.
func (c *Client) GetRoundEvidence(resourceIRI string, round uint64) ([]EvidenceRecord, error) {
	return query(c, "getEvidence", GetEvidenceArgs{ResourceIRI: resourceIRI, Round: &round}, DecodeEvidenceRecords)
}

// GetMonitoringRound fetches a monitoring round record.
func (c *Client) GetMonitoringRound(resourceIRI string, round uint64) (MonitoringRound, error) {
	return query(c, "getMonitoringRound", GetMonitoringRoundArgs{ResourceIRI: resourceIRI, Round: round}, DecodeMonitoringRound)
}
