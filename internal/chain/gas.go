package chain

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Gas schedule. The constants mirror the structure (not the magnitudes) of
// Ethereum's: a base cost per transaction, per-byte costs for calldata,
// storage writes priced far above reads, and event emission priced per
// byte. The affordability experiment (E9) reports costs in these units.
const (
	// GasTxBase is charged for any transaction.
	GasTxBase uint64 = 21_000
	// GasPerArgByte is charged per byte of calldata.
	GasPerArgByte uint64 = 16
	// GasStorageSet is charged per storage write plus per byte written.
	GasStorageSet     uint64 = 5_000
	GasStoragePerByte uint64 = 20
	// GasStorageGet is charged per storage read.
	GasStorageGet uint64 = 200
	// GasStorageDelete is charged per storage delete.
	GasStorageDelete uint64 = 1_000
	// GasEventBase is charged per emitted event plus per payload byte.
	GasEventBase    uint64 = 375
	GasEventPerByte uint64 = 8
)

// MaxTxGasLimit caps a single transaction's declared gas limit. There is
// no block gas budget: what bounds a block's execution is its byte budget
// (MaxBlockTxBytes), its transaction count (maxTxsPerBlock) and this cap
// on each transaction, without which a byzantine proposer could force
// every validator to meter arbitrarily expensive replays. Admission
// (enqueueLocked, which both Node.Submit and Network.Submit reach) and
// block validation (ApplyBlock) both enforce the cap, so an over-gas
// transaction is rejected whether it arrives by gossip or inside a sealed
// block.
const MaxTxGasLimit uint64 = 8_000_000

// ErrOutOfGas reverts a transaction whose gas limit is exhausted.
var ErrOutOfGas = errors.New("chain: out of gas")

// ErrGasTooLarge rejects a transaction whose declared gas limit exceeds
// MaxTxGasLimit.
var ErrGasTooLarge = errors.New("chain: tx gas limit above cap")

// GasMeter tracks gas consumption against a limit. It is a value: the
// contract runtime keeps one in each execution environment.
type GasMeter struct {
	limit uint64
	used  uint64
}

// NewGasMeter returns a meter with the given limit.
func NewGasMeter(limit uint64) GasMeter {
	return GasMeter{limit: limit}
}

// Charge consumes amount gas, returning ErrOutOfGas if the limit would be
// exceeded (the meter is then pinned at the limit: all gas is consumed).
func (m *GasMeter) Charge(amount uint64) error {
	if m.used+amount > m.limit || m.used+amount < m.used {
		m.used = m.limit
		return fmt.Errorf("%w: limit %d", ErrOutOfGas, m.limit)
	}
	m.used += amount
	return nil
}

// Used returns the gas consumed so far.
func (m *GasMeter) Used() uint64 { return m.used }

// CostLedger accumulates the gas spent across the chain's lifetime. It
// backs the affordability analysis: "resorting to a public blockchain,
// users ... would make a payment to interact with the blockchain metadata
// through transactions" (Section V-4). The zero value is an empty ledger.
type CostLedger struct {
	total atomic.Uint64
}

// Record notes the gas a committed block's transactions spent.
func (l *CostLedger) Record(gas uint64) { l.total.Add(gas) }

// TotalSpent returns the gas spent across all addresses.
func (l *CostLedger) TotalSpent() uint64 { return l.total.Load() }
