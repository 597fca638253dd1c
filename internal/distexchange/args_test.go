package distexchange

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/store"
)

// appender is what every …Args type is to chain.NewTx.
type appender interface{ AppendArgs([]byte) []byte }

// argCodec is one method's argument codec as the tests see it: vectors, a
// generator, the reader the contract selects by the method's name, its
// result as the …Args value it reads, and the copying decoder of the
// reference (reference_test.go) that the reader is held to: nil for the
// three readers that always decoded their …Args value whole.
type argCodec struct {
	method  string
	vectors []appender
	draw    func(gen) appender
	decode  func([]byte) (appender, error)
	ref     func([]byte) (appender, error)
}

func codecOf[A appender](method string, read func([]byte) (A, error), ref func(*store.Dec, *A), draw func(gen) A, vectors ...A) argCodec {
	c := argCodec{
		method: method,
		draw:   func(g gen) appender { return draw(g) },
		decode: func(raw []byte) (appender, error) { return read(raw) },
	}
	if ref != nil {
		c.ref = func(raw []byte) (appender, error) {
			var args A
			err := decodeArgs(raw, &args, ref)
			return args, err
		}
	}
	for _, v := range vectors {
		c.vectors = append(c.vectors, v)
	}
	return c
}

// readAs returns read with what it reads as an …Args value.
func readAs[V any, A appender](read func([]byte) (V, error), args func(V) A) func([]byte) (A, error) {
	return func(raw []byte) (A, error) {
		v, err := read(raw)
		return args(v), err
	}
}

// iriAs returns readIRIArgs with the IRI it reads as an …Args value.
func iriAs[A appender](args func(string) A) func([]byte) (A, error) {
	return readAs(readIRIArgs, func(iri []byte) A { return args(string(iri)) })
}

// recordPolicy decodes a policy read in place; nil for the zero Record.
func recordPolicy(r policy.Record) *policy.Policy {
	if len(r.Bytes()) == 0 {
		return nil
	}
	p := new(policy.Policy)
	policy.DecodeRecord(store.NewDec(r.Bytes()), p)
	return p
}

// The arguments a market method reads in place, as …Args values.
func (a registerPodView) args() RegisterPodArgs {
	return RegisterPodArgs{OwnerWebID: string(a.ownerWebID), Location: string(a.location), DefaultPolicy: recordPolicy(a.defaultPolicy)}
}
func (a registerResourceView) args() RegisterResourceArgs {
	return RegisterResourceArgs{ResourceIRI: string(a.iri), PodWebID: string(a.podWebID), Location: string(a.location),
		Description: string(a.description), Policy: recordPolicy(a.policy)}
}
func (a updatePolicyView) args() UpdatePolicyArgs {
	return UpdatePolicyArgs{ResourceIRI: string(a.iri), Policy: recordPolicy(a.policy)}
}
func (a recordGrantView) args() RecordGrantArgs {
	return RecordGrantArgs{ResourceIRI: string(a.iri), Consumer: a.consumer, Device: a.device, Purpose: policy.Purpose(a.purpose)}
}
func (a revokeGrantView) args() RevokeGrantArgs {
	return RevokeGrantArgs{ResourceIRI: string(a.iri), Device: a.device}
}

// iriRoundAs returns readIRIRoundArgs with what it reads as an …Args value.
func iriRoundAs[A appender](args func(string, uint64) A) func([]byte) (A, error) {
	return func(raw []byte) (A, error) {
		iri, round, err := readIRIRoundArgs(raw)
		return args(string(iri), round), err
	}
}

// ledgerAs returns readLedgerArgs with what it reads as an …Args value.
func ledgerAs[A appender](args func(string, *uint64) A) func([]byte) (A, error) {
	return func(raw []byte) (A, error) {
		iri, round, err := readLedgerArgs(raw)
		return args(string(iri), round), err
	}
}

func (g gen) optRound() *uint64 {
	if g.Intn(3) == 0 {
		return nil
	}
	r := g.uint()
	return &r
}

func (g gen) bytes() []byte {
	if g.Intn(4) == 0 {
		return nil
	}
	b := make([]byte, 1+g.Intn(80))
	g.Read(b)
	return b
}

// isBadArgs reports whether err is the "bad args" refusal (finishArgs).
func isBadArgs(err error) bool {
	return errors.Is(err, contract.ErrRevert) && strings.Contains(err.Error(), "bad args: ")
}

// argCodecs lists every method's and query's argument codec. Each has two
// vectors: every field set, and the zero value.
func argCodecs() []argCodec {
	v := recordVectors()
	pol := &v.policies[0]
	iri, webID := pol.ResourceIRI, pol.OwnerWebID
	owner, dev := v.pods[0].Owner, v.devices[0].Device
	round := uint64(3)
	evidence := vecEvidence()
	signed := []SignedEvidence{
		{Evidence: *evidence[0], Signature: []byte{0x30, 0x06, 0x02, 0x01, 0x07, 0x02, 0x01, 0x09}},
		{Evidence: *evidence[1]},
	}
	return []argCodec{
		codecOf("registerPod", readAs(readRegisterPodArgs, registerPodView.args), decodeRegisterPodArgs, func(g gen) RegisterPodArgs {
			return RegisterPodArgs{OwnerWebID: g.text(), Location: g.text(), DefaultPolicy: g.policy()}
		}, RegisterPodArgs{OwnerWebID: webID, Location: "https://alice.example/", DefaultPolicy: pol}, RegisterPodArgs{}),
		codecOf("registerResource", readAs(readRegisterResourceArgs, registerResourceView.args), decodeRegisterResourceArgs, func(g gen) RegisterResourceArgs {
			return RegisterResourceArgs{ResourceIRI: g.text(), PodWebID: g.text(), Location: g.text(), Description: g.text(), Policy: g.policy()}
		}, RegisterResourceArgs{ResourceIRI: iri, PodWebID: webID, Location: iri, Description: "heart rate, 2023", Policy: pol}, RegisterResourceArgs{}),
		codecOf("withdrawResource", iriAs(func(iri string) WithdrawResourceArgs { return WithdrawResourceArgs{iri} }), decodeWithdrawResourceArgs, func(g gen) WithdrawResourceArgs {
			return WithdrawResourceArgs{ResourceIRI: g.text()}
		}, WithdrawResourceArgs{ResourceIRI: iri}, WithdrawResourceArgs{}),
		codecOf("updatePolicy", readAs(readUpdatePolicyArgs, updatePolicyView.args), decodeUpdatePolicyArgs, func(g gen) UpdatePolicyArgs {
			return UpdatePolicyArgs{ResourceIRI: g.text(), Policy: g.policy()}
		}, UpdatePolicyArgs{ResourceIRI: iri, Policy: pol}, UpdatePolicyArgs{}),
		codecOf("registerDevice", decodeRegisterDeviceArgs, nil, func(g gen) RegisterDeviceArgs {
			return RegisterDeviceArgs{Certificate: g.bytes()}
		}, RegisterDeviceArgs{Certificate: []byte(`{"subject":"0xd0"}`)}, RegisterDeviceArgs{}),
		codecOf("recordGrant", readAs(readRecordGrantArgs, recordGrantView.args), decodeRecordGrantArgs, func(g gen) RecordGrantArgs {
			return RecordGrantArgs{ResourceIRI: g.text(), Consumer: g.address(), Device: g.address(), Purpose: policy.Purpose(g.text())}
		}, RecordGrantArgs{ResourceIRI: iri, Consumer: owner, Device: dev, Purpose: policy.PurposeAcademic}, RecordGrantArgs{}),
		codecOf("confirmRetrieval", iriAs(func(iri string) ConfirmRetrievalArgs { return ConfirmRetrievalArgs{iri} }), decodeConfirmRetrievalArgs, func(g gen) ConfirmRetrievalArgs {
			return ConfirmRetrievalArgs{ResourceIRI: g.text()}
		}, ConfirmRetrievalArgs{ResourceIRI: iri}, ConfirmRetrievalArgs{}),
		codecOf("revokeGrant", readAs(readRevokeGrantArgs, revokeGrantView.args), decodeRevokeGrantArgs, func(g gen) RevokeGrantArgs {
			return RevokeGrantArgs{ResourceIRI: g.text(), Device: g.address()}
		}, RevokeGrantArgs{ResourceIRI: iri, Device: dev}, RevokeGrantArgs{}),
		codecOf("requestMonitoring", iriAs(func(iri string) RequestMonitoringArgs { return RequestMonitoringArgs{iri} }), decodeRequestMonitoringArgs, func(g gen) RequestMonitoringArgs {
			return RequestMonitoringArgs{ResourceIRI: g.text()}
		}, RequestMonitoringArgs{ResourceIRI: iri}, RequestMonitoringArgs{}),
		codecOf(methodSubmitEvidence, decodeSubmitEvidenceArgs, nil, func(g gen) SubmitEvidenceArgs {
			var a SubmitEvidenceArgs
			for range g.count() {
				a.Signed = append(a.Signed, SignedEvidence{Evidence: g.evidence().Evidence, Signature: g.bytes()})
			}
			return a
		}, SubmitEvidenceArgs{Signed: signed}, SubmitEvidenceArgs{}),
		codecOf("reportUnresponsive", iriRoundAs(func(iri string, n uint64) ReportUnresponsiveArgs { return ReportUnresponsiveArgs{iri, n} }), decodeReportUnresponsiveArgs, func(g gen) ReportUnresponsiveArgs {
			return ReportUnresponsiveArgs{ResourceIRI: g.text(), Round: g.uint()}
		}, ReportUnresponsiveArgs{ResourceIRI: iri, Round: math.MaxUint64}, ReportUnresponsiveArgs{}),
		codecOf("getPod", iriAs(func(webID string) GetPodArgs { return GetPodArgs{webID} }), decodeGetPodArgs, func(g gen) GetPodArgs {
			return GetPodArgs{OwnerWebID: g.text()}
		}, GetPodArgs{OwnerWebID: webID}, GetPodArgs{}),
		codecOf("getResource", iriAs(func(iri string) GetResourceArgs { return GetResourceArgs{iri} }), decodeGetResourceArgs, func(g gen) GetResourceArgs {
			return GetResourceArgs{ResourceIRI: g.text()}
		}, GetResourceArgs{ResourceIRI: iri}, GetResourceArgs{}),
		codecOf("getGrants", iriAs(func(iri string) GetGrantsArgs { return GetGrantsArgs{iri} }), decodeGetGrantsArgs, func(g gen) GetGrantsArgs {
			return GetGrantsArgs{ResourceIRI: g.text()}
		}, GetGrantsArgs{ResourceIRI: iri}, GetGrantsArgs{}),
		codecOf("getDevice", decodeGetDeviceArgs, nil, func(g gen) GetDeviceArgs {
			return GetDeviceArgs{Device: g.address()}
		}, GetDeviceArgs{Device: dev}, GetDeviceArgs{}),
		codecOf("getViolations", ledgerAs(func(iri string, round *uint64) GetViolationsArgs { return GetViolationsArgs{iri, round} }), decodeGetViolationsArgs, func(g gen) GetViolationsArgs {
			return GetViolationsArgs{ResourceIRI: g.text(), Round: g.optRound()}
		}, GetViolationsArgs{ResourceIRI: iri, Round: &round}, GetViolationsArgs{}),
		codecOf("getEvidence", ledgerAs(func(iri string, round *uint64) GetEvidenceArgs { return GetEvidenceArgs{iri, round} }), decodeGetEvidenceArgs, func(g gen) GetEvidenceArgs {
			return GetEvidenceArgs{ResourceIRI: g.text(), Round: g.optRound()}
		}, GetEvidenceArgs{ResourceIRI: iri, Round: new(uint64)}, GetEvidenceArgs{}),
		codecOf("getMonitoringRound", iriRoundAs(func(iri string, n uint64) GetMonitoringRoundArgs { return GetMonitoringRoundArgs{iri, n} }), decodeGetMonitoringRoundArgs, func(g gen) GetMonitoringRoundArgs {
			return GetMonitoringRoundArgs{ResourceIRI: g.text(), Round: g.uint()}
		}, GetMonitoringRoundArgs{ResourceIRI: iri, Round: round}, GetMonitoringRoundArgs{}),
	}
}

// TestArgsCodecRoundTrip is the round-trip property of every method's
// arguments over their vectors and 300 drawn values: decode∘encode is the
// identity on values and encode∘decode on encodings, and neither a proper
// prefix of an encoding nor one with a trailing byte decodes. A
// submitEvidence item also carries, before its signature, exactly the
// bytes that signature covers, less their tag, and the decoded item's
// signing slice is those bytes.
func TestArgsCodecRoundTrip(t *testing.T) {
	for i, c := range argCodecs() {
		t.Run(c.method, func(t *testing.T) {
			g := gen{rand.New(rand.NewSource(int64(100 + i)))}
			values := c.vectors
			for range 300 {
				values = append(values, c.draw(g))
			}
			for j, v := range values {
				enc := v.AppendArgs(nil)
				back, err := c.decode(enc)
				if err != nil {
					t.Fatalf("case %d: %v", j, err)
				}
				if a, ok := back.(SubmitEvidenceArgs); ok {
					if i := signingMismatch(a); i >= 0 {
						t.Fatalf("case %d item %d: signing slice\n %x\nis not the signing bytes\n %x", j, i, a.Signed[i].signing, a.Signed[i].Evidence.SigningBytes())
					}
					// The value encoded was built, not decoded: it has none.
					for k := range a.Signed {
						a.Signed[k].signing = nil
					}
				}
				if !reflect.DeepEqual(back, v) {
					t.Fatalf("case %d:\n got %+v\nwant %+v", j, back, v)
				}
				if again := back.AppendArgs(nil); !bytes.Equal(again, enc) {
					t.Fatalf("case %d: re-encoding differs:\n got %x\nwant %x", j, again, enc)
				}
				if a, ok := v.(SubmitEvidenceArgs); ok {
					// Each item is what its device signed, less tagEvidence,
					// then the signature.
					signed := store.AppendUvarint(nil, uint64(len(a.Signed)))
					for _, s := range a.Signed {
						sb := s.Evidence.SigningBytes()
						if sb[0] != tagEvidence {
							t.Fatalf("case %d: signing bytes open with %#x, want tagEvidence", j, sb[0])
						}
						signed = store.AppendBytes(append(signed, sb[1:]...), s.Signature)
					}
					if !bytes.Equal(signed, enc) {
						t.Fatalf("case %d: the items' signing bytes\n %x\nare not the arguments\n %x", j, signed, enc)
					}
				}
				if _, err := c.decode(append(enc[:len(enc):len(enc)], 0)); !isBadArgs(err) {
					t.Fatalf("case %d: arguments with a trailing byte decoded (err %v)", j, err)
				}
				if len(enc) > 2048 {
					continue // every prefix of a long list's encoding is quadratic work
				}
				for cut := range len(enc) {
					if _, err := c.decode(enc[:cut]); !isBadArgs(err) {
						t.Fatalf("case %d: the %d-byte prefix of %d bytes decoded (err %v)", j, cut, len(enc), err)
					}
				}
			}
		})
	}
}

// signingMismatch returns the first item of a decoded list whose signing
// slice is not what its device signed, or -1.
func signingMismatch(a SubmitEvidenceArgs) int {
	for i := range a.Signed {
		if s := &a.Signed[i]; !bytes.Equal(s.signing, s.Evidence.SigningBytes()) {
			return i
		}
	}
	return -1
}

// TestArgsRefusePaddedUvarints: a count, a length or a round spelled with a
// padding byte is a second encoding of the same value, and no decoder takes
// it.
func TestArgsRefusePaddedUvarints(t *testing.T) {
	byMethod := map[string]argCodec{}
	for _, c := range argCodecs() {
		byMethod[c.method] = c
	}
	for _, tc := range []struct {
		method string
		raw    []byte
	}{
		{methodSubmitEvidence, []byte{0x80, 0x00}},                      // an empty list
		{"reportUnresponsive", []byte{0x01, 'r', 0x83, 0x00}},           // round 3
		{"getMonitoringRound", []byte{0x01, 'r', 0x80, 0x80, 0x00}},     // round 0
		{"getEvidence", []byte{0x01, 'r', 0x01, 0x80, 0x00}},            // round 0
		{"withdrawResource", append([]byte{0x81, 0x00}, "r"...)},        // a string's length
		{"registerDevice", append([]byte{0x84, 0x80, 0x00}, "cert"...)}, // a certificate's length
	} {
		if _, err := byMethod[tc.method].decode(tc.raw); !isBadArgs(err) {
			t.Errorf("%s % x: err %v, want bad args", tc.method, tc.raw, err)
		}
	}
}

// TestFrozenArgsEncodings pins the bytes of every method's arguments: they
// are what a transaction signs, what its hash commits to and what its
// calldata costs. A change here changes every such hash and charge.
func TestFrozenArgsEncodings(t *testing.T) {
	want := []string{
		"2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d651668747470733a2f2f616c6963652e6578616d706c652f01202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"000000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d652168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c10686561727420726174652c203230323301202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"0000000000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c01202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000005ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000005ffff050100",
		"0000",
		"127b227375626a656374223a2230786430227d",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746ca0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30861636164656d6963",
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3",
		"000000000000000000000000000000000000000000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c",
		"00",
		"022168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e30302010f01000000000000000000000000ffff0f010000000edcb5398000000005ffff02020f010000000edcb539bc00000005ffff03757365106d65646963616c2d7265736561726368010f010000000edcb539f800000005ffff05736861726507617c622c633b64000f010000000edcb5479000000005ffff0830060201070201090775726e3a787c790000000000000000000000000000000000000000ffffffffffffffffff01ffffffffffffffffff01000f01000000000000000000000000ffff0f01000000000000000000000000ffffffffffffffffffffff01010f01000000000000000000000000ffff0000000f01000000000000000000000000ffff00",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746cffffffffffffffffff01",
		"0000",
		"2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c",
		"00",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c",
		"00",
		"d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3",
		"0000000000000000000000000000000000000000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c0103",
		"0000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c0100",
		"0000",
		"2168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c03",
		"0000",
	}
	var got []string
	for _, c := range argCodecs() {
		for _, v := range c.vectors {
			got = append(got, hex.EncodeToString(v.AppendArgs(nil)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d encodings, %d frozen:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("vector %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// FuzzArgsDecode feeds every method's argument decoder arbitrary bytes. None
// may panic, refuse other than with "bad args", or allocate out of
// proportion to its input, and whatever one accepts must re-encode to
// exactly the input: arguments have one encoding, so a padded uvarint is
// refused. Each item of an accepted submitEvidence list carries a slice of
// the input as what its device signed, which the contract verifies; it
// must be Evidence.SigningBytes of the decoded item. Every reader that
// reads views (the market methods', and those of an IRI) must accept and
// refuse exactly what the copying decoder of the reference does, with the
// same error, and read the same value.
//
// CI smoke-runs this with -fuzz=FuzzArgsDecode -fuzztime=30s.
func FuzzArgsDecode(f *testing.F) {
	codecs := argCodecs()
	for _, c := range codecs {
		for _, v := range c.vectors {
			f.Add(v.AppendArgs(nil))
		}
	}
	// A 16-device round, and a list interleaving two resources: items whose
	// IRIs the decoder shares, and items whose IRIs differ from the last.
	evidence := vecEvidence()
	var round, interleaved SubmitEvidenceArgs
	for i := range 16 {
		ev := *evidence[0]
		ev.Device[0] = byte(i)
		round.Signed = append(round.Signed, SignedEvidence{Evidence: ev, Signature: []byte{0x30, 0x06, 0x02, 0x01, byte(i), 0x02, 0x01, 0x09}})
	}
	for i := range 3 {
		interleaved.Signed = append(interleaved.Signed, SignedEvidence{Evidence: *evidence[i%2], Signature: []byte{byte(i)}})
	}
	f.Add(round.AppendArgs(nil))
	f.Add(interleaved.AppendArgs(nil))
	f.Add([]byte(`{"signed":[]}`))
	f.Add([]byte{0x80, 0x00})
	f.Add(store.AppendUvarint(nil, 1<<40))                                         // a list that claims more items than bytes
	f.Add(append([]byte{0x81, 0x00}, "r"...))                                      // a string length with a padding byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 'r'}) // a length past 2⁶⁴

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := c.decode(data)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+1024*uint64(len(data)) {
				t.Fatalf("%s: %d bytes allocated over %d bytes of input", c.method, grew, len(data))
			}
			if c.ref != nil {
				want, refErr := c.ref(data)
				if fmt.Sprint(err) != fmt.Sprint(refErr) || (err == nil && !reflect.DeepEqual(v, want)) {
					t.Fatalf("%s arguments\n%x\nread in place: %+v, %v\ncopied: %+v, %v", c.method, data, v, err, want, refErr)
				}
			}
			if err != nil {
				if !isBadArgs(err) {
					t.Fatalf("%s: undocumented error class: %v", c.method, err)
				}
				continue
			}
			if again := v.AppendArgs(nil); !bytes.Equal(again, data) {
				t.Fatalf("%s accepted\n%x\nand re-encodes it as\n%x", c.method, data, again)
			}
			if a, ok := v.(SubmitEvidenceArgs); ok {
				if i := signingMismatch(a); i >= 0 {
					t.Fatalf("%s accepted\n%x\nwhose item %d signs\n%x\nnot\n%x", c.method, data, i, a.Signed[i].signing, a.Signed[i].Evidence.SigningBytes())
				}
			}
		}
	})
}

// TestMalformedArgsRevert: arguments the method's decoder refuses, JSON
// among them, revert the transaction with "bad args", charge the base and
// the calldata, and write nothing; a query fails with the same error, and
// so does listResources given any argument bytes at all.
func TestMalformedArgsRevert(t *testing.T) {
	f := newFixture(t)
	key := cryptoutil.MustGenerateKey()
	prefix := f.deAddr.String() + "/"
	before := f.node.State().Keys(prefix)
	for i, raw := range [][]byte{
		[]byte(`{"ownerWebID":"https://alice.pod/profile#me","location":"https://alice.pod/"}`),
		nil,
		{0x01},
	} {
		tx, err := chain.NewTx(key, uint64(i), f.deAddr, "registerPod", raw, DefaultGasLimit)
		if err != nil {
			t.Fatal(err)
		}
		v := sealingBackend{f.node}.Submit([]*chain.Tx{tx})[0]
		if v.Err != nil {
			t.Fatal(v.Err)
		}
		r := f.node.Receipt(v.Hash)
		if r == nil || r.Succeeded() || !strings.Contains(r.Err, "bad args: ") {
			t.Fatalf("registerPod % x: receipt %+v; want a bad-args revert", raw, r)
		}
		if want := chain.GasTxBase + uint64(len(raw))*chain.GasPerArgByte; r.GasUsed != want {
			t.Errorf("registerPod % x: %d gas, want the base and calldata charge %d", raw, r.GasUsed, want)
		}
	}
	if after := f.node.State().Keys(prefix); !reflect.DeepEqual(after, before) {
		t.Errorf("reverted registrations wrote %v", after)
	}
	if _, err := f.node.Query(f.deAddr, "getPod", []byte(`{"ownerWebID":"x"}`)); !isBadArgs(err) {
		t.Errorf("getPod over JSON arguments: %v, want bad args", err)
	}
	// listResources takes no arguments; a pod filter's bytes fail.
	if _, err := f.node.Query(f.deAddr, "listResources", store.AppendString(nil, "https://alice.pod/profile#me")); !isBadArgs(err) {
		t.Errorf("listResources over a pod filter: %v, want bad args", err)
	}
	if _, err := f.node.Query(f.deAddr, "listResources", nil); err != nil {
		t.Errorf("listResources without arguments: %v", err)
	}
}
