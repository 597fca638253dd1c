package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/simclock"
	"repro/internal/store"
)

// Cluster is the proof-of-authority network hosting the DE App: every
// validator, the broadcast layer over them, and the configs they were
// opened with.
type Cluster struct {
	Nodes   []*chain.Node
	Network *chain.Network
	DEAddr  cryptoutil.Address
	// Configs are the validators' chain configs, index-aligned with Nodes:
	// what a crashed validator is reopened from (RestartValidatorFromDisk),
	// and where validator 0's instruments live when the cluster is metered.
	Configs []chain.Config
}

// NewCluster deploys the DE App, trusting the TEE manufacturer CA whose
// public key is caKey, on cfg.Validators authority nodes. It is the one
// way this repository boots a validator cluster: NewDeployment and the
// de-node binary both call it. It reads cfg's Validators, DataDir,
// WALSync, MempoolCapacity, SenderQuota and Obs.
//
// Genesis is clk.Now(). With cfg.DataDir each validator is durable under
// DataDir/node-<i>/ and its authority key is persisted there as key.der,
// so a rebuilt cluster keeps the proposer set its chain was sealed under;
// without one the keys are random. With cfg.Obs validator 0's chain (and
// WAL, when durable) is metered, as is the process's verified-signature
// table. On error every node already opened is closed.
func NewCluster(cfg Config, clk simclock.Clock, caKey []byte) (*Cluster, error) {
	runtime := contract.NewRuntime()
	c := &Cluster{
		Nodes:   make([]*chain.Node, cfg.Validators),
		DEAddr:  runtime.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{ManufacturerCAKey: caKey})),
		Configs: make([]chain.Config, cfg.Validators),
	}
	auths := make([]cryptoutil.Address, cfg.Validators)
	for i := range c.Configs {
		cc := &c.Configs[i]
		var err error
		if cfg.DataDir == "" {
			cc.Key, err = cryptoutil.GenerateKey(nil)
		} else {
			cc.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i))
			cc.Persist = store.Options{Sync: cfg.WALSync}
			cc.Key, err = cryptoutil.LoadOrCreateKeyFile(filepath.Join(cc.DataDir, "key.der"))
		}
		if err != nil {
			return nil, err
		}
		auths[i] = cc.Key.Address()
	}
	if cfg.Obs != nil {
		// Validator 0 is the observed node (it backs the oracles and the
		// de-node API's reads); metering every validator would multiply
		// identical series without adding signal. One verified-signature
		// table per process, so one pair of counters.
		c.Configs[0].Metrics = chain.NewMetrics(cfg.Obs)
		if cfg.DataDir != "" {
			c.Configs[0].Persist.Metrics = store.NewMetrics(cfg.Obs)
		}
		cryptoutil.Instrument(cfg.Obs)
	}
	genesis := clk.Now()
	for i := range c.Configs {
		cc := &c.Configs[i]
		cc.Authorities = auths
		cc.Executor = runtime
		cc.Clock = clk
		cc.GenesisTime = genesis
		cc.MempoolCapacity = cfg.MempoolCapacity
		cc.MaxPendingPerSender = cfg.SenderQuota
		n, err := chain.OpenNode(*cc)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("core: open validator %d: %w", i, err), c.Close())
		}
		c.Nodes[i] = n
	}
	network, err := chain.NewNetwork(c.Nodes...)
	if err != nil {
		return nil, errors.Join(err, c.Close())
	}
	c.Network = network
	return c, nil
}

// Close flushes and closes every open validator's store (a no-op for
// in-memory validators); crashed validators' nil slots are skipped.
func (c *Cluster) Close() error {
	var errs []error
	for i, n := range c.Nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close validator %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
