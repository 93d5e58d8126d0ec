package censor

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ispnet"
	"repro/internal/websim"
)

// testSession builds one shared small-world session for the package tests.
var sharedSession *Session

func session(t *testing.T) *Session {
	t.Helper()
	if sharedSession == nil {
		s, err := NewSession(context.Background(), WithScenario(MustLookupScenario("small")))
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		sharedSession = s
	}
	// Each test runs on its own goroutine; handing the shared session out
	// is a serialized ownership transfer of its world.
	sharedSession.world.Rebind()
	return sharedSession
}

// blockedDomain finds an HTTP-censored normal-kind domain via the oracle.
func blockedDomain(t *testing.T, s *Session, isp string) string {
	t.Helper()
	w := s.World()
	for _, d := range w.ISP(isp).HTTPList {
		if site, ok := w.Catalog.Site(d); !ok || site.Kind != websim.KindNormal {
			continue
		}
		if tr := w.TruthFor(w.ISP(isp), d); tr.HTTPFiltered {
			return d
		}
	}
	t.Skipf("no blocked normal domain in %s", isp)
	return ""
}

func TestSessionMeasure(t *testing.T) {
	s := session(t)
	d := blockedDomain(t, s, "Idea")
	results, err := s.Measure(context.Background(), "Idea", HTTP(), d)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if len(results) != 1 || !results[0].Blocked {
		t.Fatalf("HTTP measurement missed oracle-blocked domain: %+v", results)
	}
	if results[0].Measurement != "http" || results[0].Vantage != "Idea" || results[0].Domain != d {
		t.Errorf("result identity fields wrong: %+v", results[0])
	}
	if results[0].Mechanism == "" {
		t.Errorf("blocked result carries no mechanism: %+v", results[0])
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(context.Background(), WithScenario(MustLookupScenario("small")), WithVantages("NoSuchISP")); err == nil {
		t.Error("NewSession accepted an unknown vantage")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSession(cancelled); err == nil {
		t.Error("NewSession ignored a cancelled context")
	}
	s := session(t)
	if _, err := s.Run(context.Background(), Campaign{}, WithVantages("NoSuchISP")); err == nil {
		t.Error("Run accepted an unknown vantage")
	}
	if _, err := s.Run(context.Background(), Campaign{}, WithSeed(42)); err == nil {
		t.Error("Run accepted a world-mutating per-run option")
	}
	// Empty non-nil slices mean "nothing", not "everything".
	stream, err := s.Run(context.Background(), Campaign{Domains: []string{}})
	if err != nil {
		t.Fatalf("Run(empty domains): %v", err)
	}
	if results, err := stream.Collect(); err != nil || len(results) != 0 {
		t.Errorf("empty Domains produced %d results (err=%v), want 0", len(results), err)
	}
}

// TestCampaignParallelGolden is the determinism contract: a campaign with
// WithWorkers(N) must produce byte-identical JSONL to the sequential run.
// Run under -race this also exercises the worker pool for data races.
func TestCampaignParallelGolden(t *testing.T) {
	s := session(t)
	campaign := Campaign{
		Domains:      s.PBWDomains()[:8],
		Measurements: []Measurement{DNS(), HTTP()},
	}
	vantages := WithVantages("Airtel", "MTNL", "Idea")

	runWith := func(workers int) []byte {
		stream, err := s.Run(context.Background(), campaign, vantages, WithWorkers(workers))
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := stream.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL(workers=%d): %v", workers, err)
		}
		return buf.Bytes()
	}

	sequential := runWith(1)
	parallel := runWith(6)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("parallel campaign diverged from sequential run:\n--- workers=1 ---\n%s\n--- workers=6 ---\n%s",
			sequential, parallel)
	}

	// The stream must be well-formed and in deterministic task order:
	// vantage-major, then measurement, then domain.
	results, err := ReadJSONL(bytes.NewReader(sequential))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	wantLen := 3 * 2 * len(campaign.Domains)
	if len(results) != wantLen {
		t.Fatalf("got %d results, want %d", len(results), wantLen)
	}
	i := 0
	blocked := 0
	for _, vant := range []string{"Airtel", "MTNL", "Idea"} {
		for _, kind := range []string{"dns", "http"} {
			for _, d := range campaign.Domains {
				r := results[i]
				if r.Vantage != vant || r.Measurement != kind || r.Domain != d {
					t.Fatalf("result %d out of order: got (%s,%s,%s), want (%s,%s,%s)",
						i, r.Vantage, r.Measurement, r.Domain, vant, kind, d)
				}
				if r.Blocked {
					blocked++
				}
				i++
			}
		}
	}
	if blocked == 0 {
		t.Error("campaign over censoring ISPs observed no censorship at all")
	}
}

// TestCampaignNineISPs fans the full default vantage set out across
// workers — the paper's nine-ISP sweep — and checks every vantage
// reported. Under -race this is the concurrency stress for the pool.
func TestCampaignNineISPs(t *testing.T) {
	s := session(t)
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:2],
		Measurements: []Measurement{DNS()},
	}, WithWorkers(9))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	results, err := stream.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(results) != len(StudyISPs)*2 {
		t.Fatalf("got %d results, want %d", len(results), len(StudyISPs)*2)
	}
	for i, vant := range StudyISPs {
		if results[2*i].Vantage != vant {
			t.Errorf("vantage order broken at %d: %s", i, results[2*i].Vantage)
		}
	}
}

func TestCampaignCancellation(t *testing.T) {
	s := session(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := s.Run(ctx, Campaign{
		// Enough tasks that cancellation strikes mid-campaign: the stream
		// moves whole task batches, and its two-batch lookahead plus the
		// batch in hand must not cover the whole campaign.
		Domains:      s.PBWDomains()[:64],
		Measurements: []Measurement{DNS(), HTTP()},
	}, WithVantages("Airtel", "Idea", "Vodafone"), WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Consume one result to prove the stream was live, then cancel from
	// inside the loop body.
	n, err := rangeGuarded(t, stream, func(n int) {
		if n == 1 {
			cancel()
		}
	})
	if n == 0 {
		t.Fatal("stream closed before first result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("All ended with %v after %d results, want context.Canceled", err, n)
	}
}

// TestStreamCancel cancels the campaign from another goroutine while the
// consumer keeps ranging: the range must still end, and its last pair
// must carry the cancellation.
func TestStreamCancel(t *testing.T) {
	s := session(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := s.Run(ctx, Campaign{
		Domains:      s.PBWDomains()[:64],
		Measurements: []Measurement{DNS(), HTTP()},
	}, WithVantages("Airtel", "Idea", "Vodafone"), WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	first := make(chan struct{})
	go func() {
		<-first
		cancel()
	}()
	n, err := rangeGuarded(t, stream, func(n int) {
		if n == 1 {
			close(first)
			// Hold the first result until the other goroutine has
			// cancelled, so the cancellation lands mid-campaign.
			<-ctx.Done()
		}
	})
	if n == 0 {
		t.Fatal("stream closed before first result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("All ended with %v after %d results, want context.Canceled", err, n)
	}
}

// rangeGuarded ranges over st.All() with a deadlock guard, calling
// onResult with the running count after each result. It returns the
// number of results and the error pair the range ended with, and fails
// the test if a result follows the error pair.
func rangeGuarded(t *testing.T, st *Stream, onResult func(n int)) (int, error) {
	t.Helper()
	type outcome struct {
		n          int
		err        error
		afterError bool
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		for _, err := range st.All() {
			if o.err != nil {
				o.afterError = true
			}
			if err != nil {
				o.err = err
				continue
			}
			o.n++
			onResult(o.n)
		}
		done <- o
	}()
	select {
	case o := <-done:
		if o.afterError {
			t.Fatal("All yielded a pair after its error pair")
		}
		return o.n, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("range over All did not end")
		return 0, nil
	}
}

// TestAllBreakReleasesCampaign: a break out of All after the first
// result must cancel the campaign, let every goroutine it started exit,
// and park its replica worlds for the session's next run.
func TestAllBreakReleasesCampaign(t *testing.T) {
	s, err := NewSession(context.Background(), WithScenario(MustLookupScenario("small")))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var builds atomic.Int32
	orig := newReplicaWorld
	newReplicaWorld = func(cfg ispnet.Config) *ispnet.World {
		builds.Add(1)
		return orig(cfg)
	}
	defer func() { newReplicaWorld = orig }()
	campaign := Campaign{
		Domains:      s.PBWDomains()[:64],
		Measurements: []Measurement{HTTP()},
	}
	vantages := WithVantages("Airtel", "Idea", "Vodafone")

	before := runtime.NumGoroutine()
	stream, err := s.Run(context.Background(), campaign, vantages, WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	n := 0
	for _, err := range stream.All() {
		if err != nil {
			t.Fatalf("All yielded %v before the break", err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("got %d results before the break, want 1", n)
	}
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the break, want at most %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// Every world the first run built is parked again, so a run with as
	// many workers builds none.
	built := builds.Load()
	stream, err = s.Run(context.Background(), Campaign{
		Domains:      campaign.Domains[:2],
		Measurements: campaign.Measurements,
	}, vantages, WithWorkers(int(built)))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if _, err := stream.Collect(); err != nil {
		t.Fatalf("second Collect: %v", err)
	}
	if got := builds.Load() - built; got != 0 {
		t.Errorf("second run built %d worlds, want 0: the break left replicas unparked", got)
	}
}

func TestMeasurementKinds(t *testing.T) {
	// The built-ins, in canonical registration order. External
	// registrations (the tests register "echo") append after these.
	want := []string{"dns", "http", "https", "tcp", "collateral", "evasion", "ooni", "fingerprint"}
	names := Names()
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least the %d built-ins", names, len(want))
	}
	for i, k := range want {
		if names[i] != k {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], k)
		}
		m, ok := Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%q) missing", k)
		}
		if m.Kind() != k {
			t.Errorf("Lookup(%q).Kind() = %q", k, m.Kind())
		}
	}
	all := Measurements()
	if len(all) != len(names) {
		t.Fatalf("Measurements() = %d entries, Names() = %d", len(all), len(names))
	}
	for i, m := range all {
		if m.Kind() != names[i] {
			t.Errorf("measurement %d kind = %q, want %q", i, m.Kind(), names[i])
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register("", DNS) })
	mustPanic("nil factory", func() { Register("x", nil) })
	mustPanic("kind mismatch", func() { Register("not-dns", DNS) })
	mustPanic("duplicate", func() { Register("dns", DNS) })
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Result{
		{Vantage: "Airtel", Measurement: "http", Domain: "porn-site-001.com", Blocked: true, Mechanism: "notification", Censor: "Airtel", Diff: 1},
		{Vantage: "NKN", Measurement: "dns", Domain: "popular-0000.com", Addrs: []string{"199.1.2.3"}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}
