package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

func TestRunRejectsBadValidatorCount(t *testing.T) {
	if err := run([]string{"-validators", "0"}); err == nil {
		t.Fatal("zero validators accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// bootCluster boots a cluster through the constructor run() calls, with
// a real clock and a throwaway manufacturer CA, as run() does.
func bootCluster(cfg core.Config) (*core.Cluster, error) {
	ca, err := cryptoutil.NewAuthority("tee-manufacturer")
	if err != nil {
		return nil, err
	}
	cfg.WALSync = store.SyncNever
	return core.NewCluster(cfg, simclock.Real{}, ca.PublicBytes())
}

// newTestCluster boots an in-memory cluster closed at the end of the test.
func newTestCluster(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	cluster, err := bootCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster
}

// TestBuildClusterDurableRestart: a durable cluster rebuilt over the
// same data dir keeps its authority identities and chain: the second
// boot resumes at the first boot's height with the same head.
func TestBuildClusterDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cluster, err := bootCluster(core.Config{Validators: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nodes, network, deAddr := cluster.Nodes, cluster.Network, cluster.DEAddr
	sender := cryptoutil.MustGenerateKey()
	args := distexchange.RegisterPodArgs{
		OwnerWebID: "https://restart.example/profile#me",
		Location:   "https://restart.example/",
	}
	tx, err := chain.NewTx(sender, 0, deAddr, "registerPod", args, distexchange.DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	if v := network.Submit([]*chain.Tx{tx})[0]; v.Err != nil {
		t.Fatal(v.Err)
	}
	if _, err := network.SealNext(); err != nil {
		t.Fatal(err)
	}
	wantHead := nodes[0].Head().Hash()
	wantAddrs := []cryptoutil.Address{nodes[0].Address(), nodes[1].Address()}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}

	cluster2, err := bootCluster(core.Config{Validators: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster2.Close()
	for i, n := range cluster2.Nodes {
		if n.Address() != wantAddrs[i] {
			t.Fatalf("validator %d identity changed across restart", i)
		}
		if n.Height() != 1 {
			t.Fatalf("validator %d recovered height %d, want 1", i, n.Height())
		}
		if n.Head().Hash() != wantHead {
			t.Fatalf("validator %d recovered a different head", i)
		}
	}
}

// TestRunRejectsBadFsyncPolicy: an unknown -fsync value is a flag error.
func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	if err := run([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

// TestRunGracefulShutdown boots the full binary path with a durable data
// dir, delivers SIGTERM, and verifies run() returns cleanly having
// flushed the stores (the dir reopens at a consistent height).
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-validators", "2", "-interval", "10ms",
			"-http", "127.0.0.1:0", "-data-dir", dir, "-fsync", "never",
		})
	}()
	// Let it boot and seal a few empty blocks, then ask it to stop. The
	// signal is re-sent until the handler (installed inside run) wins.
	time.Sleep(300 * time.Millisecond)
	deadline := time.After(5 * time.Second)
	for {
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v on SIGTERM", err)
			}
			// The flushed store must reopen as a consistent chain.
			cluster, err := bootCluster(core.Config{Validators: 2, DataDir: dir})
			if err != nil {
				t.Fatalf("reopen after shutdown: %v", err)
			}
			cluster.Close()
			return
		case <-deadline:
			t.Fatal("run did not exit within 5s of SIGTERM")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// registerPodTx builds a signed registerPod transaction at the default
// gas price with a unique owner derived from (label, nonce).
func registerPodTx(t *testing.T, key *cryptoutil.KeyPair, nonce uint64, deAddr cryptoutil.Address, label string) *chain.Tx {
	t.Helper()
	args := distexchange.RegisterPodArgs{
		OwnerWebID: fmt.Sprintf("https://%s-%d.example/profile#me", label, nonce),
		Location:   fmt.Sprintf("https://%s-%d.example/", label, nonce),
	}
	tx, err := chain.NewTx(key, nonce, deAddr, "registerPod", args, distexchange.DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// newOverloadCluster builds a deliberately tiny cluster: a 4-slot
// mempool so overload behaviour is reachable with a handful of txs.
func newOverloadCluster(t *testing.T) ([]*chain.Node, *chain.Network, cryptoutil.Address, *httptest.Server) {
	t.Helper()
	cluster := newTestCluster(t, core.Config{Validators: 1, MempoolCapacity: 4, SenderQuota: 8})
	srv := httptest.NewServer(newAPIMux(cluster, time.Second))
	t.Cleanup(srv.Close)
	return cluster.Nodes, cluster.Network, cluster.DEAddr, srv
}

// TestTxStreamEndpoint exercises POST /txs/stream: an overlong upload
// is admitted up to capacity with per-transaction verdicts — admitted
// txs report ok, priced-out txs report a retryable error under a
// one-block Retry-After hint, and a forged signature reports a terminal
// one — and the priced-out transaction, streamed again once a sealed
// block drains the pool, is admitted.
func TestTxStreamEndpoint(t *testing.T) {
	nodes, network, deAddr, srv := newOverloadCluster(t)

	sender := cryptoutil.MustGenerateKey()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	txs := make([]*chain.Tx, 6)
	for nonce := range uint64(6) {
		txs[nonce] = registerPodTx(t, sender, nonce, deAddr, "stream")
		if err := enc.Encode(txs[nonce]); err != nil {
			t.Fatal(err)
		}
	}
	forged := registerPodTx(t, cryptoutil.MustGenerateKey(), 0, deAddr, "forged")
	forged.Args = []byte(`{"ownerWebID":"evil"}`)
	if err := enc.Encode(forged); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/txs/stream", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /txs/stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	var ok, retryable, terminal int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v TxVerdictWire
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		switch {
		case v.Ok:
			ok++
		case v.Retryable:
			retryable++
		default:
			terminal++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 4 fit the pool; nonce 4 is priced out (retryable); nonce 5 then
	// fails its nonce check — the cascading verdict for a gapped sender
	// queue — and the forgery fails verification, both terminal.
	if ok != 4 || retryable != 1 || terminal != 2 {
		t.Fatalf("verdicts ok=%d retryable=%d terminal=%d, want 4/1/2", ok, retryable, terminal)
	}
	if got := nodes[0].PendingTxs(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	block, err := network.SealNext()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 4 {
		t.Fatalf("sealed %d txs, want 4", len(block.Txs))
	}

	// Sealing drained the pool: the priced-out nonce 4 now fits.
	if v := streamTx(t, srv, txs[4]); !v.Ok || v.Hash != txs[4].Hash().String() {
		t.Fatalf("re-streamed priced-out tx after seal: %+v, want ok", v)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestTxStreamBoundsEachValue: the largest transaction admission takes
// streams through, while a value spelled in more than maxTxValueBytes
// ends the stream with a bad-stream pseudo-verdict once the handler has
// read that much of it, never the rest.
func TestTxStreamBoundsEachValue(t *testing.T) {
	cluster := newTestCluster(t, core.Config{Validators: 1})
	mux := newAPIMux(cluster, time.Second)
	largest, err := chain.NewTx(cryptoutil.MustGenerateKey(), 0, cluster.DEAddr, "registerPod",
		make([]byte, chain.MaxBlockTxBytes-1024), distexchange.DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(largest)
	if err != nil {
		t.Fatal(err)
	}
	first = append(first, '\n')
	oversized := io.MultiReader(
		strings.NewReader(`{"args":"`),
		io.LimitReader(zeroDigits{}, 2*maxTxValueBytes),
		strings.NewReader(`"}`),
	)
	body := &countingReader{r: io.MultiReader(bytes.NewReader(first), oversized)}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txs/stream", body))

	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d verdict lines, want 2: %q", len(lines), lines)
	}
	var v TxVerdictWire
	if err := json.Unmarshal([]byte(lines[0]), &v); err != nil || !v.Ok || v.Hash != largest.Hash().String() {
		t.Fatalf("largest admissible tx: %q (%v), want ok with its hash", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &v); err != nil || v.Ok || !strings.Contains(v.Error, errTxValueTooLarge.Error()) {
		t.Fatalf("oversized value: %q (%v), want the bad-stream verdict naming the bound", lines[1], err)
	}
	if max := len(first) + maxTxValueBytes; body.n > max {
		t.Fatalf("handler read %d bytes, want at most %d", body.n, max)
	}
}

// zeroDigits is an endless run of '0', a valid base64 body.
type zeroDigits struct{}

func (zeroDigits) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// streamTx posts one transaction to /txs/stream and returns its verdict.
func streamTx(t *testing.T, srv *httptest.Server, tx *chain.Tx) TxVerdictWire {
	t.Helper()
	body, _ := json.Marshal(tx)
	resp, err := http.Post(srv.URL+"/txs/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v TxVerdictWire
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTxStreamReachesEveryValidator: the transactions /txs/stream
// admits are broadcast, so every validator's mempool holds all of them
// and the next block seals them.
func TestTxStreamReachesEveryValidator(t *testing.T) {
	cluster := newTestCluster(t, core.Config{Validators: 2})
	srv := httptest.NewServer(newAPIMux(cluster, time.Second))
	defer srv.Close()

	sender := cryptoutil.MustGenerateKey()
	const batchSize = 8
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for nonce := range uint64(batchSize) {
		if err := enc.Encode(registerPodTx(t, sender, nonce, cluster.DEAddr, "owner")); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/txs/stream", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for i := range batchSize {
		var v TxVerdictWire
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("verdict %d: %v", i, err)
		}
		if !v.Ok {
			t.Fatalf("verdict %d: %+v, want ok", i, v)
		}
	}
	if dec.More() {
		t.Fatal("more verdict lines than transactions")
	}
	for i, n := range cluster.Nodes {
		if got := n.PendingTxs(); got != batchSize {
			t.Fatalf("validator %d holds %d txs, want %d", i, got, batchSize)
		}
	}
	block, err := cluster.Network.SealNext()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != batchSize {
		t.Fatalf("sealed %d txs, want %d", len(block.Txs), batchSize)
	}
}

// TestDebugMetricsEndpoint wires the cluster the way -debug-addr does
// and scrapes the observability surface: /metrics must be valid
// Prometheus exposition with enough series for a dashboard, and the
// committed block must be visible in the counters.
func TestDebugMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	cluster := newTestCluster(t, core.Config{Validators: 2, Obs: reg})
	network, deAddr := cluster.Network, cluster.DEAddr

	sender := cryptoutil.MustGenerateKey()
	args := distexchange.RegisterPodArgs{
		OwnerWebID: "https://metrics.example/profile#me",
		Location:   "https://metrics.example/",
	}
	tx, err := chain.NewTx(sender, 0, deAddr, "registerPod", args, distexchange.DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	if v := network.Submit([]*chain.Tx{tx})[0]; v.Err != nil {
		t.Fatal(v.Err)
	}
	if _, err := network.SealNext(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.DebugMux(reg, cluster.Configs[0].Metrics.Tracer))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series++
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	if series < 25 {
		t.Fatalf("/metrics renders %d series, want >= 25:\n%s", series, body)
	}
	if !strings.Contains(string(body), "chain_blocks_committed_total 1") {
		t.Fatalf("committed block not visible in exposition:\n%s", body)
	}

	for _, path := range []string{"/debug/vars", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s is not valid JSON: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestStaleNonceIsNotAdmitted: over HTTP, a new transaction on an
// already-committed nonce is a terminal ok:false verdict on /txs/stream
// (it used to report it admitted), while a rebroadcast of the
// transaction that holds the nonce stays accepted.
func TestStaleNonceIsNotAdmitted(t *testing.T) {
	cluster := newTestCluster(t, core.Config{Validators: 3})
	network, deAddr := cluster.Network, cluster.DEAddr
	srv := httptest.NewServer(newAPIMux(cluster, time.Second))
	defer srv.Close()

	sender := cryptoutil.MustGenerateKey()
	committed := registerPodTx(t, sender, 0, deAddr, "first")
	if v := network.Submit([]*chain.Tx{committed})[0]; v.Err != nil {
		t.Fatal(v.Err)
	}
	if _, err := network.SealNext(); err != nil {
		t.Fatal(err)
	}
	replay := registerPodTx(t, sender, 0, deAddr, "second")

	stream := func(tx *chain.Tx) TxVerdictWire {
		t.Helper()
		body, _ := json.Marshal(tx)
		resp, err := http.Post(srv.URL+"/txs/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v TxVerdictWire
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := stream(replay); v.Ok || v.Retryable || v.Hash != replay.Hash().String() {
		t.Fatalf("/txs/stream with a new tx on a committed nonce: %+v, want ok:false, not retryable", v)
	}
	if v := stream(committed); !v.Ok {
		t.Fatalf("/txs/stream rebroadcasting the committed tx: %+v, want ok:true", v)
	}
	if got := network.PendingTxs(); got != 0 {
		t.Fatalf("%d txs queued, want 0", got)
	}
}
