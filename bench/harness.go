package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/store"
)

// opTimeout bounds every call that waits for a receipt, so a stuck deployment
// fails the op instead of hanging the run (the supervisor's kill is the
// backstop).
const opTimeout = 30 * time.Second

// env is one booted system under test plus what the benchmark hangs on it.
type env struct {
	spec    workloadSpec
	ops     int
	seed    int64
	d       *core.Deployment
	reg     *obs.Registry // nil in the untraced run
	tr      *tracer       // nil in the untraced run
	sealer  *sealer
	dataDir string

	// prog cuts the measured phase into segments.
	prog *progress
	// digest folds the generated inputs, in issue order, into OpDigest.
	digest hash.Hash
	// podInitNs times Owner.InitializePod (Fig. 2-1), which only set-up runs.
	podInitNs []int64
}

// newEnv boots the paper's whole stack — three durable validators, the pod
// host on a loopback socket, oracles, market — and starts the demand sealer.
func newEnv(spec workloadSpec, ops int, seed int64, dataDir string, traced bool) (*env, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{spec: spec, ops: ops, seed: seed, dataDir: dataDir, digest: sha256.New()}
	if traced {
		e.reg = obs.NewRegistry()
		e.tr = newTracer()
	}
	d, err := core.NewDeployment(core.Config{
		Validators:   3,
		Sealing:      core.SealManually,
		DataDir:      dataDir,
		WALSync:      store.SyncInterval,
		OracleFanout: true,
		Obs:          e.reg,
	})
	if err != nil {
		return nil, err
	}
	e.d = d
	e.sealer = startSealer(d, e.tr)
	return e, nil
}

// close stops the sealer and the deployment and removes the data directory.
func (e *env) close() error {
	err := e.sealer.stop()
	e.d.Close()
	return errors.Join(err, os.RemoveAll(e.dataDir))
}

// note folds one generated input into the op-sequence digest.
func (e *env) note(format string, args ...any) {
	fmt.Fprintf(e.digest, format, args...)
	e.digest.Write([]byte{'\n'})
}

func (e *env) opDigest() string { return hex.EncodeToString(e.digest.Sum(nil)) }

// sealer is the benchmark-owned demand sealer: the only caller of
// Deployment.SealBlock. It seals whenever a validator has pending
// transactions and sleeps 100 µs otherwise — the de-node sealing loop with
// the interval taken to zero. Network.SealNext is not safe to call from two
// goroutines with more than one validator, hence the single owner.
type sealer struct {
	d    *core.Deployment
	quit chan struct{}
	done chan struct{}

	mu     sync.Mutex
	err    error
	busy   time.Duration
	blocks int
	tr     *tracer
	seals  []sealRecord // traced run only
}

func startSealer(d *core.Deployment, tr *tracer) *sealer {
	s := &sealer{d: d, quit: make(chan struct{}), done: make(chan struct{}), tr: tr}
	go s.loop()
	return s
}

func (s *sealer) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if s.d.Network.PendingTxs() == 0 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		start := time.Now()
		block, err := s.d.SealBlock()
		end := time.Now()
		s.mu.Lock()
		if err != nil {
			s.err = errors.Join(s.err, err)
			s.mu.Unlock()
			return
		}
		s.busy += end.Sub(start)
		s.blocks++
		if s.tr != nil {
			rec := sealRecord{start: int64(start.Sub(s.tr.epoch)), end: int64(end.Sub(s.tr.epoch))}
			for _, tx := range block.Txs {
				rec.senders = append(rec.senders, tx.From)
			}
			s.seals = append(s.seals, rec)
		}
		s.mu.Unlock()
	}
}

// sealerStats is a snapshot of the sealer's counters.
type sealerStats struct {
	busy   time.Duration
	blocks int
	seals  int
}

func (s *sealer) stats() sealerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sealerStats{busy: s.busy, blocks: s.blocks, seals: len(s.seals)}
}

func (s *sealer) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// stop ends the loop, waits for it, and reports a sealing failure if one
// happened.
func (s *sealer) stop() error {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
	return s.failure()
}

// drain waits until no validator has pending transactions.
func (e *env) drain(ctx context.Context) error {
	for e.d.Network.PendingTxs() > 0 {
		if err := e.sealer.failure(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return e.sealer.failure()
}

// segments is how many pieces the measured phase is cut into. ops_per_s and
// cpu_ms_per_op are the median over the pieces, so a burst of interference
// from the host moves them less than it moves a whole-run mean.
const segments = 20

// The authoring host is a shared 2-CPU VM with (at least) two speed states
// about 25 % apart that last for minutes, plus minute-long episodes two to
// three times slower. Raw times on it compare the host's moods, not commits.
// So the benchmark times a fixed piece of standard-library work — the probe —
// beside everything it measures and reports every time-valued metric at
// reference host speed: a duration is divided by, a rate multiplied by,
// speed = probe time / reference time. The probe is P-256 signature
// verification straight from crypto/ecdsa: the primitive that dominates every
// workload's CPU profile, so it slows down when they do (a SHA-256 loop did
// not: it saw 5 % of a 19 % slowdown), yet no change to this repository can
// move it.
const (
	probeVerifies = 4 // per burst: about a third of a millisecond
	probeTries    = 8 // bursts per probe; the fastest counts, interference only ever adds time
	// referenceVerifyNs is the time per verification that counts as speed 1.
	// On the authoring host one takes about 70 µs in the fast state and
	// 88 µs in the slow one.
	referenceVerifyNs = 80_000
)

// speedProbe holds one signature to verify over and over.
type speedProbe struct {
	pub    *ecdsa.PublicKey
	digest [sha256.Size]byte
	sig    []byte
}

var probe = newSpeedProbe()

func newSpeedProbe() *speedProbe {
	key, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
	if err != nil {
		panic(err) // the system's entropy source is gone
	}
	p := &speedProbe{pub: &key.PublicKey, digest: sha256.Sum256([]byte("host speed probe"))}
	if p.sig, err = ecdsa.SignASN1(crand.Reader, key, p.digest[:]); err != nil {
		panic(err)
	}
	return p
}

// hostSpeed runs the probe and returns the host's slowness relative to the
// reference: below 1 on the authoring host's fast state, above on its slow one.
func hostSpeed() float64 {
	best := time.Duration(1 << 62)
	for range probeTries {
		t0 := time.Now()
		for range probeVerifies {
			if !ecdsa.VerifyASN1(probe.pub, probe.digest[:], probe.sig) {
				panic("host speed probe: signature does not verify")
			}
		}
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / probeVerifies / referenceVerifyNs
}

// progress counts completed operations across clients; client 0 marks the
// clock, the process CPU time and the host speed every few samples of its own.
type progress struct {
	done  atomic.Int64
	every int    // client 0's latency samples per mark
	own   int    // client 0's samples so far; touched by client 0 only
	marks []mark // written by client 0 only, then by finish
}

type mark struct {
	at    time.Time
	cpu   time.Duration
	done  int64
	speed float64
}

func newProgress(samplesPerClient int) *progress {
	p := &progress{every: max(1, samplesPerClient/segments), marks: make([]mark, 0, segments+2)}
	p.mark()
	return p
}

func (p *progress) mark() {
	speed := hostSpeed() // before the clock is read: the probe belongs to the segment it ends
	p.marks = append(p.marks, mark{at: time.Now(), cpu: cpuTime(), done: p.done.Load(), speed: speed})
}

// tick records that client finished one latency sample covering ops operations.
func (p *progress) tick(client, ops int) {
	p.done.Add(int64(ops))
	if client != 0 {
		return
	}
	if p.own++; p.own%p.every == 0 {
		p.mark()
	}
}

// finish closes the last segment once every client has returned.
func (p *progress) finish() { p.mark() }

// segment is one stretch between two marks, with the host speed around it.
type segment struct {
	from, to time.Time
	ops      float64
	cpu      time.Duration
	speed    float64
}

func (p *progress) segments() []segment {
	var out []segment
	for i := 1; i < len(p.marks); i++ {
		a, b := p.marks[i-1], p.marks[i]
		if b.done > a.done && b.at.After(a.at) {
			// The median of the probes at the segment's ends and their
			// neighbours: a single probe jitters by a few percent.
			var near []float64
			for _, m := range p.marks[max(i-2, 0):min(i+2, len(p.marks))] {
				near = append(near, m.speed)
			}
			out = append(out, segment{from: a.at, to: b.at, ops: float64(b.done - a.done), cpu: b.cpu - a.cpu, speed: median(near)})
		}
	}
	return out
}

// speedAt returns the host speed of the segment that holds instant t.
func speedAt(segs []segment, t time.Time) float64 {
	i := sort.Search(len(segs), func(i int) bool { return !segs[i].to.Before(t) })
	return segs[min(i, len(segs)-1)].speed
}

// rusage reads the process's resource usage; the call cannot fail for
// RUSAGE_SELF with a valid pointer.
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func cpuTime() time.Duration {
	cpu, _ := rusage()
	return cpu
}

// usage is a reading of the process-wide cost counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	rssKB   int64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, rss := rusage()
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, rssKB: rss}
}

// ledgerDelta is what the measured phase committed, read back from validator
// 0's blocks after the run.
type ledgerDelta struct {
	blocks   int
	txs      int
	gas      uint64
	reverted int
	byMethod map[string]int
}

func ledgerBetween(n *chain.Node, from, to uint64) ledgerDelta {
	out := ledgerDelta{byMethod: make(map[string]int)}
	for h := from + 1; h <= to; h++ {
		b := n.BlockByNumber(h)
		if b == nil {
			continue
		}
		out.blocks++
		out.txs += len(b.Txs)
		for i, r := range b.Receipts {
			out.gas += r.GasUsed
			if !r.Succeeded() {
				out.reverted++
			}
			out.byMethod[b.Txs[i].Method]++
		}
	}
	return out
}

// sample is one successful latency sample: how long it took, when it ended.
type sample struct {
	ns  int64
	end time.Time
}

// clientResult is what one closed-loop agent reports.
type clientResult struct {
	samples   []sample
	attempted int // operations attempted
	failed    int // operations failed or refused
	firstErr  error
}

// ok records a successful sample that began at t0.
func (c *clientResult) ok(t0 time.Time) {
	end := time.Now()
	c.samples = append(c.samples, sample{ns: end.Sub(t0).Nanoseconds(), end: end})
}

func (c *clientResult) fail(ops int, err error) {
	c.failed += ops
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// merge folds per-client results into one.
func merge(results []clientResult) clientResult {
	var out clientResult
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// runClients runs fn once per client goroutine and waits for all of them.
func runClients(n int, fn func(client int) clientResult) []clientResult {
	results := make([]clientResult, n)
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = fn(c)
		}()
	}
	wg.Wait()
	return results
}

// quantile returns the q-quantile of values by nearest rank (0 when empty).
// values is sorted in place.
func quantile(values []int64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	rank := int(math.Ceil(q*float64(len(values)))) - 1
	rank = min(max(rank, 0), len(values)-1)
	return float64(values[rank])
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// balanced returns n draws from [0,k) in which every value appears n/k times
// (±1), in seeded random order: the seed changes the sequence, not the totals,
// so op cost is comparable across seeds.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// payload returns size seeded pseudo-random bytes.
func payload(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b) // math/rand's Read never fails
	return b
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// resourceSizes are the body sizes market-mix draws from.
var resourceSizes = []int{1 << 10, 4 << 10, 16 << 10}

// calibrate times the two ECDSA primitives every layer leans on and one policy
// evaluation: the host-speed yardstick printed with every result.
func calibrate() (signUs, verifyUs, evaluateNs float64, err error) {
	const n = 1000
	key := cryptoutil.MustGenerateKey()
	msg := []byte("bench calibration message, 64 bytes long, padded to the end ....")
	sigs := make([][]byte, n)
	t0 := time.Now()
	for i := range n {
		if sigs[i], err = key.Sign(msg); err != nil {
			return 0, 0, 0, err
		}
	}
	signUs = float64(time.Since(t0).Microseconds()) / n
	addr, pub := key.Address(), key.PublicBytes()
	t0 = time.Now()
	for i := range n {
		if err = cryptoutil.VerifyWithAddress(addr, pub, msg, sigs[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	verifyUs = float64(time.Since(t0).Microseconds()) / n
	evaluateNs = calibratePolicy()
	return signUs, verifyUs, evaluateNs, nil
}
