package chain

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
)

// Tx is a signed state-mutating transaction addressed to a contract.
type Tx struct {
	// Nonce orders transactions per sender and prevents replay.
	Nonce uint64 `json:"nonce"`
	// From is the sender address.
	From cryptoutil.Address `json:"from"`
	// SenderKey is the sender's public key (uncompressed point); the
	// address must be derivable from it.
	SenderKey []byte `json:"senderKey"`
	// Contract is the target contract address.
	Contract cryptoutil.Address `json:"contract"`
	// Method is the contract method to invoke.
	Method string `json:"method"`
	// Args is the method's arguments, in the encoding the contract reads
	// them in: for the DE App, the binary encoding of the method's …Args
	// type (distexchange's "Argument format").
	Args []byte `json:"args"`
	// GasLimit caps the gas this transaction may consume.
	GasLimit uint64 `json:"gasLimit"`
	// GasPrice is the price-per-gas bid that orders the transaction in
	// the mempool. It is economic weight only: execution charges gas
	// against GasLimit regardless of price.
	GasPrice uint64 `json:"gasPrice"`
	// Signature is the ASN.1 ECDSA signature over SigningBytes.
	Signature []byte `json:"signature"`
}

// SigningBytes returns the bytes the signature covers: the transaction's
// encoding (codec.go) up to its signature.
func (tx *Tx) SigningBytes() []byte {
	return appendTxBody(make([]byte, 0, txSizeHint(tx)), tx)
}

// Hash returns the transaction hash (over the signed content plus the
// signature).
func (tx *Tx) Hash() cryptoutil.Hash { return txHash(nil, tx) }

// Transaction validation errors.
var (
	ErrBadSignature = errors.New("chain: invalid transaction signature")
	ErrNoMethod     = errors.New("chain: transaction missing method")
	ErrGasLimitZero = errors.New("chain: transaction gas limit is zero")
	ErrTxTooLarge   = errors.New("chain: transaction larger than a block's byte budget")
)

// hashAndVerify returns the transaction's hash and checks the sender
// signature and sender-key/address consistency, both from one encoding
// of the transaction: the submission pipeline needs both for every
// transaction it is handed. The hash is valid whatever the verdict.
func (tx *Tx) hashAndVerify() (cryptoutil.Hash, error) {
	enc := tx.SigningBytes()
	h := cryptoutil.HashOf(enc, tx.Signature)
	switch {
	case tx.Method == "":
		return h, ErrNoMethod
	case tx.GasLimit == 0:
		return h, ErrGasLimitZero
	case txSizeHint(tx) > MaxBlockTxBytes:
		return h, fmt.Errorf("%w: %d bytes, budget %d", ErrTxTooLarge, txSizeHint(tx), MaxBlockTxBytes)
	}
	if err := cryptoutil.VerifyWithAddress(tx.From, tx.SenderKey, enc, tx.Signature); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return h, nil
}

// DefaultGasPrice is the price NewTx stamps on transactions. Honest
// clients that never think about fees bid this; adversarial flood
// traffic typically bids far below it, which is exactly what the priced
// mempool exploits to keep settlements flowing under overload.
const DefaultGasPrice uint64 = 100

// argsEncoder is a method's arguments that append their own encoding.
type argsEncoder interface {
	AppendArgs(dst []byte) []byte
}

// encodeArgs returns the bytes NewTxPriced puts in Tx.Args: an argsEncoder's
// encoding, a []byte as it is, and nothing for nil. Any other value is an
// error; there is no reflective fallback.
func encodeArgs(args any) ([]byte, error) {
	switch a := args.(type) {
	case argsEncoder:
		return a.AppendArgs(nil), nil
	case []byte:
		return a, nil
	case nil:
		return nil, nil
	default:
		return nil, fmt.Errorf("chain: encode args: %T has no AppendArgs method", args)
	}
}

// NewTx builds and signs a transaction at DefaultGasPrice. args is a value
// with an AppendArgs method, which encodes it, a []byte taken as it is, or
// nil for no arguments.
func NewTx(key *cryptoutil.KeyPair, nonce uint64, contract cryptoutil.Address, method string, args any, gasLimit uint64) (*Tx, error) {
	return NewTxPriced(key, nonce, contract, method, args, gasLimit, DefaultGasPrice)
}

// NewTxPriced builds and signs a transaction with an explicit gas-price
// bid.
func NewTxPriced(key *cryptoutil.KeyPair, nonce uint64, contract cryptoutil.Address, method string, args any, gasLimit, gasPrice uint64) (*Tx, error) {
	encoded, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	tx := &Tx{
		Nonce:     nonce,
		From:      key.Address(),
		SenderKey: key.PublicBytes(),
		Contract:  contract,
		Method:    method,
		Args:      encoded,
		GasLimit:  gasLimit,
		GasPrice:  gasPrice,
	}
	sig, err := key.Sign(tx.SigningBytes())
	if err != nil {
		return nil, err
	}
	tx.Signature = sig
	return tx, nil
}

// Status of an executed transaction.
type Status int

// Receipt statuses.
const (
	StatusOK Status = iota + 1
	StatusReverted
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusReverted:
		return "reverted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Receipt records the outcome of a transaction execution.
type Receipt struct {
	// TxHash identifies the transaction.
	TxHash cryptoutil.Hash
	// Status is StatusOK or StatusReverted.
	Status Status
	// GasUsed is the gas consumed (charged even on revert).
	GasUsed uint64
	// Err holds the revert reason for StatusReverted.
	Err string
	// Events lists the events emitted (empty on revert).
	Events []Event
	// BlockNumber is the block the transaction landed in.
	BlockNumber uint64
	// Return is the method's return value, if any, in the contract's own
	// encoding (the DE App's record format).
	Return []byte
}

// Succeeded reports whether the transaction executed without reverting.
func (r *Receipt) Succeeded() bool { return r.Status == StatusOK }

// Digest returns the hash of the receipt's encoding (codec.go), a leaf
// of the block's receipt root.
func (r *Receipt) Digest() cryptoutil.Hash { return receiptDigest(nil, r) }
