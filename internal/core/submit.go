package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/chain"
)

// RetryPolicy shapes the capped, jittered exponential backoff used when
// a submission surface answers backpressure — the in-process network
// backend on chain.ErrPoolFull/ErrQuotaExceeded, and the HTTP TxClient
// on 429 (where a Retry-After hint takes precedence over the computed
// delay).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4; 1 disables
	// retrying).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 10ms); attempt n waits
	// BaseDelay·2ⁿ, jittered ±50%.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// delay computes the pause before retry number attempt (0-based): capped
// exponential backoff with ±50% jitter, overridden upward by an explicit
// server hint (Retry-After).
func (p RetryPolicy) delay(attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay << attempt
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Jitter in [0.5d, 1.5d) de-synchronizes clients that all got
	// backpressured by the same full pool.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if hint > d {
		d = hint
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// TxVerdictWire is one line of the de-node streaming ingestion response
// (`POST /txs/stream`, NDJSON): the transaction hash, whether it was
// admitted, the admission error otherwise, and whether retrying later
// can succeed (backpressure) or not (deterministic rejection).
type TxVerdictWire struct {
	Hash      string `json:"hash"`
	Ok        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// TxClient is a small retrying submission client for the de-node HTTP
// API: it posts signed transaction batches to /txs and backs off on 429,
// honoring the server's Retry-After hint under the policy's cap.
type TxClient struct {
	// BaseURL is the de-node API root, e.g. "http://127.0.0.1:8545".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// Policy shapes the backoff (zero value = defaults).
	Policy RetryPolicy
}

// ErrBackpressure is returned by TxClient.Submit when the node still
// answers 429 after the policy's attempts are exhausted.
var ErrBackpressure = errors.New("core: node backpressured every attempt")

// Submit posts the batch to /txs, retrying on 429 with capped jittered
// backoff (Retry-After honored). It returns the number of transactions
// the node accepted.
func (c *TxClient) Submit(ctx context.Context, txs []*chain.Tx) (int, error) {
	body, err := json.Marshal(txs)
	if err != nil {
		return 0, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	p := c.Policy.withDefaults()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/txs", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		out, hint, err := decodeSubmitResponse(resp)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, ErrBackpressure) || attempt >= p.MaxAttempts-1 {
			return 0, err
		}
		select {
		case <-time.After(p.delay(attempt, hint)):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// decodeSubmitResponse consumes one /txs response: the accepted count on
// 200, ErrBackpressure plus the Retry-After hint on 429, and a verbatim
// error otherwise.
func decodeSubmitResponse(resp *http.Response) (accepted int, hint time.Duration, err error) {
	defer resp.Body.Close()
	raw, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if readErr != nil {
		return 0, 0, readErr
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var out struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, 0, fmt.Errorf("core: decode /txs response: %w", err)
		}
		return out.Accepted, 0, nil
	case http.StatusTooManyRequests:
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
		return 0, hint, fmt.Errorf("%w: %s", ErrBackpressure, bytes.TrimSpace(raw))
	default:
		return 0, 0, fmt.Errorf("core: /txs returned %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
}
