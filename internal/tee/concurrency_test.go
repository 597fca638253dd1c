package tee

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestAppConcurrentUseAndMonitoring hammers a trusted application with
// concurrent uses, evidence generation, and policy updates; the use count
// must be exact and no race may corrupt state (run with -race).
func TestAppConcurrentUseAndMonitoring(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("payload"), webPolicy(0)); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const usesPerWorker = 50
	var wg sync.WaitGroup
	var evidenceErrs atomic.Int32
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range usesPerWorker {
				if _, err := app.Use(iri, policy.ActionUse); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				if _, err := app.Evidence(iri, 1); err != nil {
					evidenceErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := app.copies[iri].useCount; got != workers*usesPerWorker {
		t.Fatalf("use count = %d, want %d", got, workers*usesPerWorker)
	}
	if evidenceErrs.Load() != 0 {
		t.Fatalf("evidence errors: %d", evidenceErrs.Load())
	}
}

// TestAppConcurrentPolicyUpdatesAndUses interleaves version bumps with
// uses; the final enforced version must be the highest applied.
func TestAppConcurrentPolicyUpdatesAndUses(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const versions = 20
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); v <= versions; v++ {
			p := webPolicy(time.Duration(v) * time.Hour)
			p.Version = v
			if err := app.ApplyPolicyUpdate(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 100 {
			_, err := app.Use(iri, policy.ActionUse)
			if err != nil && !errors.Is(err, ErrUseDenied) {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := app.PolicyVersion(iri); got != versions {
		t.Fatalf("final version = %d, want %d", got, versions)
	}
}

// TestAppDeletionDuringUseRace: deletion racing with uses never yields a
// partially usable copy — a use either succeeds fully or fails with
// ErrDeleted.
func TestAppDeletionDuringUseRace(t *testing.T) {
	for range 10 {
		app, _ := newApp(t, policy.PurposeWebAnalytics)
		iri := "https://alice.pod/web/browsing.csv"
		if err := app.StoreResource(iri, []byte("payload"), webPolicy(0)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 20 {
				data, err := app.Use(iri, policy.ActionUse)
				if err == nil && len(data) != len("payload") {
					t.Error("partial read")
					return
				}
				if err != nil && !errors.Is(err, ErrDeleted) {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			_ = app.Delete(iri)
		}()
		wg.Wait()
	}
}
