package solid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// newPublicEnv is newTestEnv with the pod root readable by anyone, so
// anonymous clients can GET without signing.
func newPublicEnv(t *testing.T) *testEnv {
	t.Helper()
	e := newTestEnv(t, nil)
	acl := NewACL(aliceID, "/")
	acl.GrantPublic("world", "/", true, ModeRead)
	if err := e.pod.SetACL(aliceID, "/", acl); err != nil {
		t.Fatal(err)
	}
	return e
}

// rawGet sends an unsigned request and returns the response with its body
// read.
func rawGet(t *testing.T, method, url string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGetServesCommittedVersionsWhole pins what the server's GET relies on
// when it writes the stored body without copying it: a stored body is
// never written again. HTTP GETs race PUTs, Appends and Deletes of the
// same path; every 200 must carry one committed version whole, under the
// ETag of that version.
func TestGetServesCommittedVersionsWhole(t *testing.T) {
	e := newPublicEnv(t)
	const path = "/data/r.bin"
	var versions sync.Map // sha256 of every body a mutation stored
	register := func(body []byte) { versions.Store(sha256.Sum256(body), true) }

	// Each chunk repeats its version number, so a body that mixed two
	// versions matches none. The writer runs until the readers are done.
	var stop atomic.Bool
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		rng := rand.New(rand.NewSource(1))
		var current []byte
		for v := uint32(1); !stop.Load(); v++ {
			chunk := bytes.Repeat(binary.LittleEndian.AppendUint32(nil, v), 1+rng.Intn(2<<10))
			switch op := rng.Intn(4); {
			case op < 2 || current == nil:
				current = chunk
				register(current)
				if err := e.pod.Put(aliceID, path, "application/octet-stream", chunk, podEpoch); err != nil {
					t.Error(err)
					return
				}
			case op == 2:
				current = append(append([]byte(nil), current...), chunk...)
				register(current)
				if _, _, err := e.pod.Append(aliceID, path, "", chunk, podEpoch); err != nil {
					t.Error(err)
					return
				}
			default:
				current = nil
				if err := e.pod.Delete(aliceID, path); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var served atomic.Int64
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 150 {
				resp, err := http.Get(e.url(path))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusNotFound:
					continue
				case http.StatusOK:
				default:
					t.Errorf("GET = %d", resp.StatusCode)
					return
				}
				served.Add(1)
				if _, ok := versions.Load(sha256.Sum256(body)); !ok {
					t.Errorf("GET served %d bytes that no mutation stored", len(body))
					return
				}
				if got, want := resp.Header.Get("ETag"), ETagFor(body); got != want {
					t.Errorf("ETag %s for a body whose tag is %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-writer
	if served.Load() == 0 {
		t.Fatal("no GET found the resource")
	}
}

// TestGetDeclaresContentLength checks that a GET answers with the body's
// length, not chunked, at every size; that HEAD answers the same headers
// and no body; and that a conditional GET still answers 304 bare.
func TestGetDeclaresContentLength(t *testing.T) {
	e := newPublicEnv(t)
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB
	if err := e.pod.Put(aliceID, "/big.bin", "application/octet-stream", body, podEpoch); err != nil {
		t.Fatal(err)
	}
	get, got := rawGet(t, http.MethodGet, e.url("/big.bin"), nil)
	if get.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("GET = %d with %d bytes", get.StatusCode, len(got))
	}
	if cl := get.Header.Get("Content-Length"); cl != "16384" || get.ContentLength != 16384 {
		t.Errorf("Content-Length %q (%d), want 16384", cl, get.ContentLength)
	}
	if len(get.TransferEncoding) != 0 {
		t.Errorf("transfer encoding %v, want none", get.TransferEncoding)
	}

	head, none := rawGet(t, http.MethodHead, e.url("/big.bin"), nil)
	if head.StatusCode != http.StatusOK || len(none) != 0 {
		t.Fatalf("HEAD = %d with %d bytes", head.StatusCode, len(none))
	}
	for _, h := range []string{"Content-Length", "Content-Type", "ETag", "Last-Modified"} {
		if head.Header.Get(h) != get.Header.Get(h) {
			t.Errorf("HEAD %s = %q, GET says %q", h, head.Header.Get(h), get.Header.Get(h))
		}
	}

	cond, none := rawGet(t, http.MethodGet, e.url("/big.bin"), http.Header{"If-None-Match": {get.Header.Get("ETag")}})
	if cond.StatusCode != http.StatusNotModified || len(none) != 0 {
		t.Fatalf("conditional GET = %d with %d bytes", cond.StatusCode, len(none))
	}
	if cond.Header.Get("ETag") != get.Header.Get("ETag") || cond.Header.Get("Last-Modified") != get.Header.Get("Last-Modified") {
		t.Errorf("304 validators %v, want the GET's", cond.Header)
	}
	for _, h := range []string{"Content-Length", "Content-Type"} {
		if v := cond.Header.Get(h); v != "" {
			t.Errorf("304 carries %s %q", h, v)
		}
	}
}

// TestClientGetAllocatesOneBodyBuffer checks that Client.Get reads a body
// of known length into one buffer: a 16 KiB GET allocates as often as a
// 1 KiB one, where growing the buffer costs about ten more. The count is
// the whole process's, server and client.
func TestClientGetAllocatesOneBodyBuffer(t *testing.T) {
	e := newPublicEnv(t)
	anon := NewClient("", nil, e.clk)
	allocs := func(size int) float64 {
		path := fmt.Sprintf("/r%d.bin", size)
		if err := e.pod.Put(aliceID, path, "", make([]byte, size), podEpoch); err != nil {
			t.Fatal(err)
		}
		get := func() {
			if data, _, err := anon.Get(e.url(path)); err != nil || len(data) != size {
				t.Fatalf("GET %s: %d bytes, %v", path, len(data), err)
			}
		}
		get() // warm the connection
		return testing.AllocsPerRun(50, get)
	}
	small, large := allocs(1<<10), allocs(16<<10)
	t.Logf("Client.Get allocations: %.0f at 1 KiB, %.0f at 16 KiB", small, large)
	// Two of slack: under the race detector a read that waits on the
	// network, or sync.Pool's random drops, moves either count by one.
	if large > small+2 {
		t.Errorf("Client.Get: %.0f allocations at 16 KiB, %.0f at 1 KiB", large, small)
	}
}

// TestClientReadsChunkedBodyWhole checks that a body of unknown length, a
// container listing long enough to go out chunked, still reads whole.
func TestClientReadsChunkedBodyWhole(t *testing.T) {
	e := newPublicEnv(t)
	for i := range 200 {
		if err := e.pod.Put(aliceID, fmt.Sprintf("/dir/entry-%03d.txt", i), "text/plain", []byte("x"), podEpoch); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.pod.ContainerListing(aliceID, "/dir/")
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := rawGet(t, http.MethodGet, e.url("/dir/"), nil)
	if len(resp.TransferEncoding) == 0 || resp.ContentLength != -1 {
		t.Fatalf("listing of %d bytes went out with length %d, encoding %v: not chunked", len(want), resp.ContentLength, resp.TransferEncoding)
	}
	got, _, err := NewClient("", nil, e.clk).Get(e.url("/dir/"))
	if err != nil || string(got) != want {
		t.Fatalf("listing read %d of %d bytes, %v", len(got), len(want), err)
	}
}

// TestClientBodyOverLimit checks the client's answer to a body above
// MaxBodyBytes, declared or not: its first MaxBodyBytes bytes, as a read
// bounded at the limit gives.
func TestClientBodyOverLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 64 MiB")
	}
	for _, declared := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(MaxBodyBytes+1))
			}
			block := bytes.Repeat([]byte{'x'}, 1<<20)
			for range MaxBodyBytes >> 20 {
				_, _ = w.Write(block)
			}
			_, _ = w.Write([]byte{'y'})
		}))
		got, _, err := NewClient("", nil, nil).Get(srv.URL + "/big")
		srv.Close()
		if err != nil || len(got) != MaxBodyBytes || got[len(got)-1] != 'x' {
			t.Errorf("declared=%t: %d bytes, %v; want the first %d", declared, len(got), err, MaxBodyBytes)
		}
	}
}

// TestReadSizedMatchesBoundedRead checks readSized against the bounded
// io.ReadAll it replaces, for every relation of declared length, actual
// length and limit: both return the same bytes, and fail together.
func TestReadSizedMatchesBoundedRead(t *testing.T) {
	body := strings.Repeat("abcdefgh", 300) // 2400 bytes
	for _, declared := range []int64{-1, 0, 100, 2400, 2401, maxPresized + 1} {
		for _, limit := range []int64{0, 99, 100, 2400, 5000} {
			want, wantErr := io.ReadAll(io.LimitReader(strings.NewReader(body), limit))
			if declared >= 0 && declared < int64(len(want)) {
				// A sender that declared fewer bytes sends only those.
				want, wantErr = want[:declared], nil
			}
			src := io.Reader(strings.NewReader(body))
			if declared >= 0 {
				src = io.LimitReader(src, declared)
			}
			got, err := readSized(src, declared, limit)
			if declared > int64(len(body)) && declared <= min(limit, maxPresized) {
				// Promised more than it sent: the read fails, as an HTTP
				// body cut short of its Content-Length does.
				if err == nil {
					t.Errorf("declared %d of %d, limit %d: no error", declared, len(body), limit)
				}
				continue
			}
			if string(got) != string(want) || (err == nil) != (wantErr == nil) {
				t.Errorf("declared %d, limit %d: %d bytes, %v; want %d bytes, %v", declared, limit, len(got), err, len(want), wantErr)
			}
		}
	}
}
