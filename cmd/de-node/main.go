// Command de-node runs a proof-of-authority blockchain cluster hosting
// the DistExchange application, sealing blocks at a fixed interval and
// exposing a small HTTP status/query API. The cluster is booted by
// core.NewCluster, the constructor core.NewDeployment also runs.
//
// Usage:
//
//	de-node [-validators 3] [-interval 1s] [-http :8545]
//	        [-data-dir DIR] [-fsync interval]
//	        [-mempool-cap 8192] [-sender-quota 1024]
//	        [-debug-addr :6060]
//
// -debug-addr starts a second, private HTTP server with the
// observability endpoints: GET /metrics (Prometheus text exposition of
// validator 0's chain and WAL instruments and the process's
// verified-signature table counters), /debug/vars,
// /debug/traces (recent tx-lifecycle traces), and the /debug/pprof/
// suite. Without the flag no instrument is live: every hot-path hook
// stays on the no-op path and nothing listens.
//
// With -data-dir each validator journals sealed blocks to a write-ahead
// log under DIR/node-<i>/, snapshots its state there whenever the diff
// tail a recovery would replay has outgrown it (store.SnapshotDue; there
// is no cadence to tune), and persists its authority key there as
// key.der, so a restarted process resumes the same chain at the height it
// left off. An empty -data-dir (the default) keeps the historical
// all-in-memory behaviour. SIGINT/SIGTERM trigger a graceful shutdown:
// sealing stops, the HTTP server drains, and every store is flushed and
// closed.
//
// Endpoints:
//
//	GET  /status              cluster height, gas totals, oracle stats
//	GET  /resources           the DE App resource index (JSON)
//	GET  /violations?iri=...  violations recorded for a resource
//	POST /txs/stream          the one ingestion route: a sequence of
//	                          JSON transactions in, one NDJSON verdict
//	                          line out per transaction — what fits is
//	                          admitted, the rest is reported with a
//	                          retryable flag instead of failing the
//	                          whole upload; a transaction spelled in
//	                          more than maxTxValueBytes ends the
//	                          stream as garbage does
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/tee"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "de-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("de-node", flag.ContinueOnError)
	validators := fs.Int("validators", 3, "number of authority nodes")
	interval := fs.Duration("interval", time.Second, "block interval")
	httpAddr := fs.String("http", ":8545", "HTTP API listen address")
	dataDir := fs.String("data-dir", "", "durable storage root (empty = in-memory; WAL + snapshots + keys under <dir>/node-<i>/)")
	fsync := fs.String("fsync", "interval", "WAL fsync policy: always, interval, never")
	execWorkers := fs.Int("exec-workers", 0, "parallel transaction execution workers per node (0 = GOMAXPROCS, 1 = serial; blocks are bit-identical at any setting)")
	mempoolCap := fs.Int("mempool-cap", 0, "mempool capacity in transactions (0 = package default; full pool evicts the cheapest tail or answers a retryable verdict)")
	senderQuota := fs.Int("sender-quota", 0, "max pending transactions per sender (0 = package default)")
	debugAddr := fs.String("debug-addr", "", "observability listen address (empty = disabled; GET /metrics, /debug/vars, /debug/traces, /debug/pprof/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validators < 1 {
		return fmt.Errorf("validators must be >= 1")
	}
	syncPolicy, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}

	// Instruments are live only when something can scrape them; with the
	// flag unset every hot-path hook stays no-op.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	// The DE App trusts a manufacturer CA generated here and discarded, so
	// no TEE device can register on a de-node cluster yet.
	manufacturer, err := tee.NewManufacturer("tee-manufacturer")
	if err != nil {
		return err
	}
	cluster, err := core.NewCluster(core.Config{
		Validators:      *validators,
		DataDir:         *dataDir,
		WALSync:         syncPolicy,
		ExecWorkers:     *execWorkers,
		MempoolCapacity: *mempoolCap,
		SenderQuota:     *senderQuota,
		Obs:             reg,
	}, simclock.Real{}, manufacturer.CAPublicBytes())
	if err != nil {
		return err
	}
	// Runs on either exit path, after sealing stops and the servers drain.
	defer func() {
		if err := cluster.Close(); err != nil {
			log.Print(err)
		}
	}()

	log.Printf("DE App deployed at %s on a %d-validator PoA cluster", cluster.DEAddr, *validators)
	if *dataDir != "" {
		log.Printf("durable storage under %s (fsync=%s), height %d recovered",
			*dataDir, syncPolicy, cluster.Nodes[0].Height())
	}
	for i, n := range cluster.Nodes {
		log.Printf("  validator %d: %s", i, n.Address().Short())
	}

	// Background sealing loop.
	stop := make(chan struct{})
	sealerDone := make(chan struct{})
	go func() {
		defer close(sealerDone)
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				block, err := cluster.Network.SealNext()
				if err != nil {
					log.Printf("seal: %v", err)
					continue
				}
				if len(block.Txs) > 0 {
					log.Printf("block %d: %d txs, %d gas", block.Header.Number, len(block.Txs), block.GasUsed())
				}
			}
		}
	}()

	mux := newAPIMux(cluster, *interval)

	srv := &http.Server{Addr: *httpAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("HTTP API on %s (GET /status, /resources, /violations?iri=...; POST /txs/stream)", *httpAddr)

	// The observability server is separate from the API server: pprof and
	// metrics bind to a private address and never ride on the public mux.
	var debugSrv *http.Server
	if reg != nil {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(reg, cluster.Configs[0].Metrics.Tracer),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("observability on %s (GET /metrics, /debug/vars, /debug/traces, /debug/pprof/)", *debugAddr)
	}
	shutdownDebug := func(ctx context.Context) {
		if debugSrv == nil {
			return
		}
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Printf("debug shutdown: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
		// Ordered shutdown: no new blocks, drain HTTP, then flush and
		// close every store so the WAL tail is durable before exit.
		close(stop)
		<-sealerDone
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		shutdownDebug(ctx)
		return nil
	case err := <-errCh:
		close(stop)
		<-sealerDone
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDebug(ctx)
		return err
	}
}

// retryAfterSeconds turns the block interval into a Retry-After hint:
// one block drains pool headroom, so a backpressured client should wait
// about that long (whole seconds, at least 1 — the header has no finer
// granularity).
func retryAfterSeconds(interval time.Duration) string {
	secs := int(math.Ceil(interval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// TxVerdictWire is one line of the POST /txs/stream response (NDJSON):
// the transaction hash, whether it was admitted, the admission error
// otherwise, and whether retrying later can succeed (backpressure) or
// not (deterministic rejection).
type TxVerdictWire struct {
	Hash      string `json:"hash"`
	Ok        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// streamChunkSize bounds how many decoded transactions /txs/stream
// verifies and broadcasts per round trip to the network layer.
const streamChunkSize = 256

// maxTxValueBytes bounds one transaction's JSON in /txs/stream. Twice a
// block's byte budget leaves room for base64 arguments and field names;
// a transaction that needs more could not be admitted anyway
// (chain.ErrTxTooLarge).
const maxTxValueBytes = 2 * chain.MaxBlockTxBytes

// errTxValueTooLarge ends a stream whose next value outgrows
// maxTxValueBytes.
var errTxValueTooLarge = fmt.Errorf("a transaction exceeds %d bytes of JSON", maxTxValueBytes)

// valueReader feeds a stream decoder at most maxTxValueBytes past the
// end of the last value it decoded, so one value cannot make the decoder
// buffer without bound.
type valueReader struct {
	io.Reader
	dec  *json.Decoder
	read int64 // bytes handed to the decoder
}

func (v *valueReader) Read(p []byte) (int, error) {
	room := v.dec.InputOffset() + maxTxValueBytes - v.read
	if room <= 0 {
		return 0, errTxValueTooLarge
	}
	n, err := v.Reader.Read(p[:min(int64(len(p)), room)])
	v.read += int64(n)
	return n, err
}

// newAPIMux builds the cluster's HTTP status/query/submission API, reading
// from validator 0. The block interval sizes the stream's Retry-After
// hint, which tells a client holding retryable verdicts when to resend.
func newAPIMux(cluster *core.Cluster, interval time.Duration) *http.ServeMux {
	nodes, network, deAddr := cluster.Nodes, cluster.Network, cluster.DEAddr
	retryAfter := retryAfterSeconds(interval)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		head := nodes[0].Head()
		writeJSON(w, map[string]any{
			"height":     head.Header.Number,
			"headHash":   head.Hash().String(),
			"validators": len(nodes),
			"deApp":      deAddr.String(),
			"totalGas":   nodes[0].Costs().TotalSpent(),
			"stateKeys":  nodes[0].State().Len(),
		})
	})
	mux.HandleFunc("GET /resources", func(w http.ResponseWriter, r *http.Request) {
		reply, err := nodes[0].Query(deAddr, "listResources", distexchange.ListResourcesArgs{}.AppendArgs(nil))
		writeListing(w, reply, err, distexchange.DecodeResourceRecords)
	})
	mux.HandleFunc("POST /txs/stream", func(w http.ResponseWriter, r *http.Request) {
		// Streaming ingestion: decode transactions as they arrive, admit
		// them in bounded chunks, and answer one NDJSON verdict line per
		// transaction. A full pool fails individual transactions (marked
		// retryable), never the whole upload.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Retry-After", retryAfter)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		emit := func(chunk []*chain.Tx) {
			for _, v := range network.Submit(chunk) {
				line := TxVerdictWire{Hash: v.Hash.String(), Ok: v.Admitted()}
				if v.Err != nil {
					line.Error = v.Err.Error()
					line.Retryable = chain.IsBackpressure(v.Err)
				}
				_ = enc.Encode(line)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		body := &valueReader{Reader: r.Body}
		dec := json.NewDecoder(body)
		body.dec = dec
		chunk := make([]*chain.Tx, 0, streamChunkSize)
		for {
			var tx *chain.Tx
			if err := dec.Decode(&tx); err == io.EOF {
				break
			} else if err != nil {
				if len(chunk) > 0 {
					emit(chunk)
				}
				// Mid-stream garbage: report what we can and stop. The
				// status line already went out with the first verdict, so
				// the error rides the stream as a final pseudo-verdict.
				_ = enc.Encode(TxVerdictWire{Error: "bad transaction stream: " + err.Error()})
				return
			}
			if tx == nil {
				continue
			}
			chunk = append(chunk, tx)
			if len(chunk) == streamChunkSize {
				emit(chunk)
				chunk = chunk[:0]
			}
		}
		if len(chunk) > 0 {
			emit(chunk)
		}
	})
	mux.HandleFunc("GET /violations", func(w http.ResponseWriter, r *http.Request) {
		iri := r.URL.Query().Get("iri")
		if iri == "" {
			http.Error(w, "missing iri query parameter", http.StatusBadRequest)
			return
		}
		reply, err := nodes[0].Query(deAddr, "getViolations", distexchange.GetViolationsArgs{ResourceIRI: iri}.AppendArgs(nil))
		writeListing(w, reply, err, distexchange.DecodeViolations)
	})
	return mux
}

// writeListing answers with a DE App listing query's outcome: the chain
// speaks the record codec, the HTTP surface JSON (an empty listing is []).
func writeListing[T any](w http.ResponseWriter, reply []byte, err error, decode func([]byte) ([]T, error)) {
	var records []T
	if err == nil {
		records, err = decode(reply)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if records == nil {
		records = []T{}
	}
	writeJSON(w, records)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
