package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
)

// FuzzTxStream feeds arbitrary bytes to POST /txs/stream, de-node's one
// ingestion route. Whatever the body, the handler must not panic, must
// answer 200, and every line it writes must be a verdict; only the last
// line may lack a hash (the bad-stream pseudo-verdict). One cluster
// serves every input, so admitted transactions accumulate as they would
// on a running node.
func FuzzTxStream(f *testing.F) {
	cluster, err := bootCluster(core.Config{Validators: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cluster.Close() })
	mux := newAPIMux(cluster, time.Second)

	key := cryptoutil.MustGenerateKey()
	var txs [][]byte
	for nonce := range uint64(2) {
		args := distexchange.RegisterPodArgs{OwnerWebID: "https://fuzz.example/profile#me", Location: "https://fuzz.example/"}
		tx, err := chain.NewTx(key, nonce, cluster.DEAddr, "registerPod", args, distexchange.DefaultGasLimit)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(tx)
		if err != nil {
			f.Fatal(err)
		}
		txs = append(txs, raw)
	}
	f.Add(txs[0])
	f.Add([]byte("null"))
	f.Add(txs[0][:len(txs[0])/2])
	f.Add(append(append(bytes.Clone(txs[0]), ' '), txs[1]...))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txs/stream", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		if rec.Body.Len() == 0 {
			lines = nil
		}
		for i, line := range lines {
			var v TxVerdictWire
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatalf("line %d %q is not a verdict: %v", i, line, err)
			}
			if v.Hash == "" && i != len(lines)-1 {
				t.Fatalf("line %d of %d has no hash: %q", i, len(lines), line)
			}
		}
	})
}
