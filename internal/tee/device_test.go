package tee

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/store"
)

var teeEpoch = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

func newDevice(t *testing.T) (*Manufacturer, *Device) {
	t.Helper()
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := m.Provision(MeasurementOf("trusted-app-v1"), teeEpoch, teeEpoch.Add(365*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestProvisionAndAttest(t *testing.T) {
	m, dev := newDevice(t)
	nonce := []byte("verifier-nonce-123")
	q, err := dev.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	want := MeasurementOf("trusted-app-v1")
	addr, err := VerifyQuote(q, m.CAPublicBytes(), nonce, &want, teeEpoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if addr != dev.Address() {
		t.Fatalf("quote address = %s, want %s", addr, dev.Address())
	}
}

func TestVerifyQuoteRejections(t *testing.T) {
	m, dev := newDevice(t)
	nonce := []byte("nonce-A")
	q, err := dev.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	now := teeEpoch.Add(time.Hour)
	want := MeasurementOf("trusted-app-v1")

	t.Run("wrong nonce (replay)", func(t *testing.T) {
		if _, err := VerifyQuote(q, m.CAPublicBytes(), []byte("nonce-B"), &want, now); err == nil {
			t.Fatal("replayed quote accepted")
		}
	})
	t.Run("wrong expected measurement", func(t *testing.T) {
		other := MeasurementOf("malware-v1")
		if _, err := VerifyQuote(q, m.CAPublicBytes(), nonce, &other, now); err == nil {
			t.Fatal("wrong measurement accepted")
		}
	})
	t.Run("untrusted manufacturer", func(t *testing.T) {
		rogue, err := NewManufacturer()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyQuote(q, rogue.CAPublicBytes(), nonce, &want, now); err == nil {
			t.Fatal("quote verified against wrong CA")
		}
	})
	t.Run("tampered measurement", func(t *testing.T) {
		bad := *q
		bad.Measurement = MeasurementOf("tampered")
		if _, err := VerifyQuote(&bad, m.CAPublicBytes(), nonce, nil, now); err == nil {
			t.Fatal("tampered quote accepted")
		}
	})
	t.Run("expired certificate", func(t *testing.T) {
		if _, err := VerifyQuote(q, m.CAPublicBytes(), nonce, &want, teeEpoch.Add(400*24*time.Hour)); err == nil {
			t.Fatal("expired certificate accepted")
		}
	})
	t.Run("no measurement expectation still verifies chain", func(t *testing.T) {
		if _, err := VerifyQuote(q, m.CAPublicBytes(), nonce, nil, now); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeviceIdentities(t *testing.T) {
	_, d1 := newDevice(t)
	_, d2 := newDevice(t)
	if d1.Address() == d2.Address() {
		t.Fatal("two devices share an address")
	}
	if d1.measurement != MeasurementOf("trusted-app-v1") {
		t.Fatal("measurement mismatch")
	}
	if _, err := cryptoutil.DecodeCertificate(d1.CertificateBytes()); err != nil {
		t.Fatal(err)
	}
}

// TestQuoteEncodeDecode: 1 000 seeded quotes round-trip, and what the
// device signs is the encoding less its signature.
func TestQuoteEncodeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	blob := func(n int) []byte {
		if r.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, r.Intn(n))
		r.Read(b)
		return b
	}
	for i := range 1000 {
		q := &Quote{Nonce: blob(100), DeviceKey: blob(70), Certificate: blob(300), Signature: blob(72)}
		r.Read(q.Measurement[:])
		enc := q.Encode()
		if got := store.AppendBytes(q.SigningBytes(), q.Signature); !bytes.Equal(got, enc) {
			t.Fatalf("case %d: SigningBytes and signature\n %x\nare not the encoding\n %x", i, got, enc)
		}
		back, err := DecodeQuote(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if again := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("case %d: re-encoding differs:\n got %x\nwant %x", i, again, enc)
		}
	}
}

// FuzzQuoteDecode: DecodeQuote never panics, and what it accepts is
// Quote.Encode's output, byte for byte, so a quote has one encoding; the
// bytes its signature covers are that encoding less the signature.
func FuzzQuoteDecode(f *testing.F) {
	m, err := NewManufacturer()
	if err != nil {
		f.Fatal(err)
	}
	dev, err := m.Provision(MeasurementOf("trusted-app-v1"), teeEpoch, teeEpoch.Add(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	for _, nonce := range []string{"", "nonce-A", "MEUCIQDx3m1v2dWk3q0tPb9rKq3RrJH8p6Ue1m3pXG8tHq4u1wIgXh6V2tE0o9S3xPnqYy1m5Vx7XyQ1bH2c6p6o5Yb7J3s="} {
		q, err := dev.Attest([]byte(nonce))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.Encode())
	}
	f.Add((&Quote{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuote(data)
		if err != nil {
			return
		}
		if again := q.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		if signed := store.AppendBytes(q.SigningBytes(), q.Signature); !bytes.Equal(signed, data) {
			t.Fatalf("accepted %x, but SigningBytes and signature are %x", data, signed)
		}
	})
}
