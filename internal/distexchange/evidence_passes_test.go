package distexchange

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// listRun is what the chain keeps of one submitEvidence executed in a
// block: the receipt, the state root after it, and its net diff.
type listRun struct {
	receipt *chain.Receipt
	root    cryptoutil.Hash
	deltas  []chain.Delta
}

// runList executes one submitEvidence of signed under gas on a fork of w's
// state, reverting it as a block does when the transaction fails, with the
// verified-signature table cold so that the verify pass really verifies.
// w's state is left as it was.
func (w *listWorld) runList(signed []SignedEvidence, gas uint64) listRun {
	w.t.Helper()
	tx, err := chain.NewTx(w.relay, 0, w.deAddr, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed}, gas)
	if err != nil {
		w.t.Fatal(err)
	}
	cryptoutil.ForgetVerified()
	ov := w.fork().st
	checkpoint := ov.Checkpoint()
	r := w.rt.ExecuteTx(ov, tx, chain.BlockContext{Number: 1, Time: t0})
	if !r.Succeeded() {
		ov.RevertTo(checkpoint)
	}
	return listRun{receipt: r, root: ov.Root(), deltas: netDeltas(ov.TakeDeltas(), w.st)}
}

// netDeltas keeps the entries of a fork's drained diff that change base:
// the fork's layer also holds the copy of base it started from.
func netDeltas(deltas []chain.Delta, base chain.StateReader) []chain.Delta {
	var net []chain.Delta
	for _, d := range deltas {
		v, ok := base.Get([]byte(d.K))
		if d.Del && ok || !d.Del && (!ok || !bytes.Equal(v, d.V)) {
			net = append(net, d)
		}
	}
	return net
}

// TestEvidencePassesReceiptIdentity: the check, verify and record passes of
// submitEvidence give one receipt — status, gas, revert text, return value
// and events — one state root and one net diff whatever the width of the
// verifier pool, inline at GOMAXPROCS 1 or spread over 2 or 8 goroutines.
// The lists put each kind of refusal first, in the middle and last, repeat
// an item, refuse every item, and run out of gas in the check pass and in
// the record pass. At GOMAXPROCS 1 each row's receipt is also held to what
// judging the items one after another gives.
func TestEvidencePassesReceiptIdentity(t *testing.T) {
	w := newListWorld(t)
	sign := func(key *cryptoutil.KeyPair, iri string) SignedEvidence {
		ev := Evidence{ResourceIRI: iri, Device: key.Address(), Round: 2, PolicyVersion: 1, StillStored: true, RetrievedAt: t0, GeneratedAt: t0}
		sig, err := key.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		return SignedEvidence{Evidence: ev, Signature: sig}
	}
	valid := []SignedEvidence{sign(w.holders[0], w.iri), sign(w.holders[1], w.iri), sign(w.holders[2], w.iri)}
	forged := sign(w.holders[3], w.iri)
	forged.Signature[len(forged.Signature)/2] ^= 1
	refusals := []struct {
		name, text string // text: what the refusal says
		signed     SignedEvidence
	}{
		{"unregistered resource", `resource "https://nowhere.example/x" not registered`, sign(w.holders[3], "https://nowhere.example/x")},
		{"unregistered device", "device " + w.nobody.Address().String() + " not registered", sign(w.nobody, w.iri)},
		{"no grant", "no grant for device " + w.stranger.Address().String(), sign(w.stranger, w.iri)},
		{"bad signature", "evidence signature invalid", forged},
	}

	// The gas a list costs up to the end of its check pass: the base
	// charge, calldata, and three reads per item (all of valid's pass).
	checked := func(signed []SignedEvidence) uint64 {
		tx, err := chain.NewTx(w.relay, 0, w.deAddr, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed}, DefaultGasLimit)
		if err != nil {
			t.Fatal(err)
		}
		return chain.GasTxBase + uint64(len(tx.Args))*chain.GasPerArgByte + uint64(len(signed))*3*chain.GasStorageGet
	}
	full := w.runList(valid, DefaultGasLimit).receipt
	if !full.Succeeded() {
		t.Fatal(full.Err)
	}

	type row struct {
		name   string
		signed []SignedEvidence
		gas    uint64
		want   []string // per item: "" accepted, else a refusal's text; nil: the transaction reverts
		revert string   // the revert text the receipt must contain when want is nil
	}
	var rows []row
	for _, r := range refusals {
		for pos, at := range []string{"first", "middle", "last"} {
			signed := append([]SignedEvidence(nil), valid...)
			signed[pos] = r.signed
			want := []string{"", "", ""}
			want[pos] = r.text
			rows = append(rows, row{name: fmt.Sprintf("%s %s", r.name, at), signed: signed, gas: DefaultGasLimit, want: want})
		}
	}
	dup := []SignedEvidence{valid[0], valid[1], valid[0]}
	rows = append(rows,
		row{name: "duplicated item", signed: dup, gas: DefaultGasLimit, want: []string{"", "", ""}},
		row{name: "every item refused", signed: []SignedEvidence{refusals[2].signed, refusals[3].signed, refusals[1].signed, refusals[0].signed},
			gas: DefaultGasLimit, revert: refusals[2].text},
		// The first read of the check pass.
		row{name: "out of gas, first check", signed: valid, gas: checked(valid[:0]) + chain.GasStorageGet - 1, revert: "out of gas"},
		// The last item's grant read. Items run one after another would
		// have recorded the first two before; the meter pins at the limit
		// either way, so the receipt is the same.
		row{name: "out of gas, last check", signed: valid, gas: checked(valid) - 1, revert: "out of gas"},
		// The first charge of the record pass: the evidence counter's read.
		row{name: "out of gas, first record", signed: valid, gas: checked(valid) + chain.GasStorageGet - 1, revert: "out of gas"},
		// The last charge of the record pass.
		row{name: "out of gas, last record", signed: valid, gas: full.GasUsed - 1, revert: "out of gas"},
	)

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			var first listRun
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := w.runList(tc.signed, tc.gas)
				runtime.GOMAXPROCS(prev)
				if procs == 1 {
					first = got
					checkListReceipt(t, got, tc.want, tc.revert, tc.gas)
					continue
				}
				r, r1 := got.receipt, first.receipt
				if r.Status != r1.Status || r.GasUsed != r1.GasUsed || r.Err != r1.Err ||
					string(r.Return) != string(r1.Return) || !reflect.DeepEqual(r.Events, r1.Events) || r.Digest() != r1.Digest() {
					t.Fatalf("GOMAXPROCS %d: receipt %v %d %q, %d events; at 1: %v %d %q, %d events",
						procs, r.Status, r.GasUsed, r.Err, len(r.Events), r1.Status, r1.GasUsed, r1.Err, len(r1.Events))
				}
				if got.root != first.root || !reflect.DeepEqual(got.deltas, first.deltas) {
					t.Fatalf("GOMAXPROCS %d: root %s and %d deltas; at 1: %s and %d", procs, got.root.Short(), len(got.deltas), first.root.Short(), len(first.deltas))
				}
			}
		})
	}
}

// checkListReceipt holds one run to the outcome judging its items one after
// another gives: per item the record or the refusal, or a revert that
// leaves nothing behind.
func checkListReceipt(t *testing.T, got listRun, want []string, revert string, gas uint64) {
	t.Helper()
	r := got.receipt
	if want == nil {
		if r.Succeeded() || !strings.Contains(r.Err, revert) || len(r.Events) != 0 || len(got.deltas) != 0 {
			t.Fatalf("status %v, %q, %d events, %d deltas; want a revert saying %q that leaves nothing", r.Status, r.Err, len(r.Events), len(got.deltas), revert)
		}
		if strings.Contains(revert, "out of gas") && r.GasUsed != gas {
			t.Fatalf("out of gas at %d of %d: the meter pins at the limit", r.GasUsed, gas)
		}
		return
	}
	if !r.Succeeded() {
		t.Fatal(r.Err)
	}
	outcomes, err := DecodeEvidenceOutcomes(r.Return)
	if err != nil || len(outcomes) != len(want) {
		t.Fatalf("%d outcomes for %d items: %v", len(outcomes), len(want), err)
	}
	recorded, seq := 0, uint64(0)
	for i, o := range outcomes {
		if want[i] == "" {
			seq++
			if o.Err != nil || o.Seq != seq {
				t.Fatalf("item %d: seq %d (%v), want the record with seq %d", i, o.Seq, o.Err, seq)
			}
			recorded++
			continue
		}
		if o.Err == nil || !strings.Contains(o.Err.Error(), want[i]) {
			t.Fatalf("item %d: %v, want a refusal saying %q", i, o.Err, want[i])
		}
	}
	var events int
	for _, ev := range r.Events {
		if ev.Topic == TopicEvidenceRecorded {
			events++
		}
	}
	if events != recorded {
		t.Fatalf("%d EvidenceRecorded events for %d accepted items", events, recorded)
	}
}
