package solid

import (
	"encoding/base64"
	"encoding/hex"
	"errors"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// FuzzAuthenticate feeds arbitrary signed-request headers, method and
// path to Server.authenticate, the one surface that reads credentials
// off the wire, on a server with one registered agent. It may not panic.
// A request it accepts as that agent carries a signature that verifies
// under the registered key over (method, signing path, date, nonce) and
// a date inside MaxClockSkew, and the same request sent again is refused
// as a replay. The corpus is seeded with a request the agent signed and
// with variants that each break one header.
func FuzzAuthenticate(f *testing.F) {
	key := cryptoutil.MustGenerateKey()
	keyHex := hex.EncodeToString(key.PublicBytes())
	sign := func(method, path, date, nonce string) string {
		sig, err := key.Sign(signingString(method, path, date, nonce))
		if err != nil {
			f.Fatal(err)
		}
		return base64.StdEncoding.EncodeToString(sig)
	}
	date := podEpoch.Format(time.RFC3339Nano)
	early := podEpoch.Add(-MaxClockSkew).Format(time.RFC3339Nano)
	stale := podEpoch.Add(-MaxClockSkew - time.Nanosecond).Format(time.RFC3339Nano)
	good := sign("GET", "/data/a.txt", date, "n1")
	for _, seed := range []struct{ agent, key, sig, date, nonce, method, path string }{
		{string(aliceID), keyHex, good, date, "n1", "GET", "/data/a.txt"},
		{string(aliceID), keyHex, sign("PUT", "/", early, "n2"), early, "n2", "PUT", "/"},
		{string(aliceID), keyHex, sign("GET", "/", stale, "n3"), stale, "n3", "GET", "/"},
		{string(aliceID), keyHex, good, date, "n1", "GET", "/data/b.txt"},
		{string(aliceID), keyHex, good, date, "n2", "GET", "/data/a.txt"},
		{string(aliceID), keyHex[:len(keyHex)-2] + "00", good, date, "n1", "GET", "/data/a.txt"},
		{string(bobID), keyHex, good, date, "n1", "GET", "/data/a.txt"},
		{string(aliceID), keyHex, "", date, "n1", "GET", "/data/a.txt"},
		{string(aliceID), keyHex, "%%%", "yesterday", "n1", "GET", "/data/a.txt"},
		{"", "", "", "", "", "GET", "/"},
	} {
		f.Add(seed.agent, seed.key, seed.sig, seed.date, seed.nonce, seed.method, seed.path)
	}
	f.Fuzz(func(t *testing.T, agent, keyHex, sig, date, nonce, method, path string) {
		dir := NewMapDirectory()
		dir.Register(aliceID, key.PublicBytes())
		clk := simclock.NewSim(podEpoch)
		s := NewServer(NewPod(aliceID, "https://alice.pod"), dir, clk, nil)
		r := &http.Request{Method: method, URL: &url.URL{Path: path}, Header: http.Header{
			HeaderAgent:     {agent},
			HeaderAgentKey:  {keyHex},
			HeaderSignature: {sig},
			HeaderDate:      {date},
			HeaderNonce:     {nonce},
		}}
		got, err := s.authenticate(r)
		if err != nil {
			return
		}
		if agent == "" {
			if got != "" {
				t.Fatalf("a request without %s authenticated as %q", HeaderAgent, got)
			}
			return
		}
		if got != aliceID {
			t.Fatalf("authenticated as %q, the directory holds only %q", got, aliceID)
		}
		ts, perr := time.Parse(time.RFC3339Nano, date)
		if perr != nil || ts.Before(clk.Now().Add(-MaxClockSkew)) || ts.After(clk.Now().Add(MaxClockSkew)) {
			t.Fatalf("accepted date %q outside ±%v of %v (%v)", date, MaxClockSkew, clk.Now(), perr)
		}
		raw, derr := base64.StdEncoding.DecodeString(sig)
		pub, _, kerr := cryptoutil.ParsePublicKey(key.PublicBytes())
		if derr != nil || kerr != nil || !cryptoutil.Verify(pub, signingString(method, path, date, nonce), raw) {
			t.Fatalf("accepted a signature that does not verify under the registered key over %q %q %q %q",
				method, path, date, nonce)
		}
		if _, err := s.authenticate(r); !errors.Is(err, ErrNonceReplayed) {
			t.Fatalf("the same request sent again: %v, want %v", err, ErrNonceReplayed)
		}
	})
}
