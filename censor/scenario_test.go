package censor

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/apisurface"
	"repro/internal/ispnet"
)

// presetSession builds a session for a preset by name.
func presetSession(t *testing.T, name string, opts ...Option) *Session {
	t.Helper()
	sc, ok := LookupScenario(name)
	if !ok {
		t.Fatalf("preset %q not registered", name)
	}
	s, err := NewSession(context.Background(), append([]Option{WithScenario(sc)}, opts...)...)
	if err != nil {
		t.Fatalf("NewSession(%s): %v", name, err)
	}
	return s
}

// campaignJSONL digests a small fixed campaign on a session (nil domains:
// the first six PBWs).
func campaignJSONL(t *testing.T, s *Session, workers int, domains []string, opts ...Option) []byte {
	t.Helper()
	if domains == nil {
		domains = s.PBWDomains()
		if len(domains) > 6 {
			domains = domains[:6]
		}
	}
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      domains,
		Measurements: []Measurement{DNS(), HTTP()},
	}, append([]Option{WithWorkers(workers)}, opts...)...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := stream.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestScenarioPresetRoundTrip is the preset contract: every registered
// scenario survives JSON marshal → unmarshal → Validate with an identical
// world — same compiled config, and a byte-identical golden campaign.
func TestScenarioPresetRoundTrip(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := MustLookupScenario(name)
			raw, err := json.Marshal(sc)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			var back Scenario
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("Validate after round trip: %v", err)
			}
			wantCfg, err := ispnet.Compile(sc)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			gotCfg, err := ispnet.Compile(back)
			if err != nil {
				t.Fatalf("Compile after round trip: %v", err)
			}
			if !reflect.DeepEqual(gotCfg, wantCfg) {
				t.Fatal("compiled config changed across JSON round trip")
			}
			if !reflect.DeepEqual(back, sc) {
				t.Fatal("scenario value changed across JSON round trip")
			}
			if name == "paper-2018" && testing.Short() {
				t.Skip("golden campaign on the full-scale world skipped in -short")
			}
			orig, err := NewSession(context.Background(), WithScenario(sc))
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			rt, err := NewSession(context.Background(), WithScenario(back))
			if err != nil {
				t.Fatalf("NewSession(round-tripped): %v", err)
			}
			vantages := WithVantages(defaultVantages(sc)[:1]...)
			want := campaignJSONL(t, orig, 2, nil, vantages)
			got := campaignJSONL(t, rt, 2, nil, vantages)
			if !bytes.Equal(got, want) {
				t.Fatalf("golden campaign diverged across JSON round trip:\n--- original ---\n%s\n--- round-tripped ---\n%s", want, got)
			}
		})
	}
}

// TestScenarioRejection: invalid specs fail NewSession with the
// validation error, before any world is built.
func TestScenarioRejection(t *testing.T) {
	base := MustLookupScenario("small")
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"negative middlebox count", func(s *Scenario) { s.ISPs[0].Middleboxes = -1 }, "negative"},
		{"unknown transit provider", func(s *Scenario) { s.ISPs[4].Transits[0].Provider = "Hathway" }, "unknown transit provider"},
		{"consistency above 1", func(s *Scenario) { s.ISPs[0].Consistency = 1.01 }, "outside [0,1]"},
		{"dns consistency below 0", func(s *Scenario) { s.ISPs[4].DNSConsistency = -0.5 }, "outside [0,1]"},
		{"unknown mechanism", func(s *Scenario) { s.ISPs[0].Mechanism = "quantum" }, "unknown mechanism"},
		{"no ISPs", func(s *Scenario) { s.ISPs = nil }, "no ISPs"},
		{"vantage names no ISP", func(s *Scenario) { s.Vantages = []string{"Airtel", "Typo"} }, "names no ISP"},
		{"loss prob on interceptive", func(s *Scenario) { s.ISPs[1].WiretapLossProb = 0.3 }, "only wiretap boxes race"},
	}
	for _, tc := range cases {
		sc := base.Clone()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want mention of %q", tc.name, err, tc.want)
		}
		_, err := NewSession(context.Background(), WithScenario(sc))
		if err == nil {
			t.Errorf("%s: NewSession accepted the invalid scenario", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSession error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioRegistry covers registration semantics: lookups deep-copy,
// and programmer errors panic like the detector registry's.
func TestScenarioRegistry(t *testing.T) {
	a := MustLookupScenario("dns-only")
	a.ISPs[0].Name = "Mutated"
	b := MustLookupScenario("dns-only")
	if b.ISPs[0].Name == "Mutated" {
		t.Fatal("LookupScenario returned a shared copy")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { RegisterScenario(Scenario{}) })
	mustPanic("duplicate", func() { RegisterScenario(MustLookupScenario("small")) })
	invalid := MustLookupScenario("small")
	invalid.Name = "broken"
	invalid.ISPs[0].Consistency = 7
	mustPanic("invalid spec", func() { RegisterScenario(invalid) })
}

// TestScenarioVantages: a scenario's Vantages list is the campaign
// default; empty means all ISPs; WithVantages overrides.
func TestScenarioVantages(t *testing.T) {
	s := presetSession(t, "dns-only")
	if got, want := s.Vantages(), []string{"HeavyPoison", "LightPoison", "Honest"}; !reflect.DeepEqual(got, want) {
		t.Errorf("default vantages = %v, want all ISPs %v", got, want)
	}
	s = presetSession(t, "dns-only", WithVantages("Honest"))
	if got := s.Vantages(); !reflect.DeepEqual(got, []string{"Honest"}) {
		t.Errorf("WithVantages override = %v", got)
	}
	paper := MustLookupScenario("paper-2018")
	if !reflect.DeepEqual(paper.Vantages, StudyISPs) {
		t.Errorf("paper preset vantages = %v, want the nine study ISPs", paper.Vantages)
	}
}

// TestPooledCampaignDeterminism is the pooling regression of the
// determinism contract, on a non-paper preset: workers=1 reuses one world
// for every task, workers=8 builds eight, and a fresh-world-per-task run
// is the pre-pooling reference — all three must be byte-identical. A
// Reset that leaks any engine, stack, server or middlebox state between
// tasks shows up here.
func TestPooledCampaignDeterminism(t *testing.T) {
	s := presetSession(t, "all-interceptive")
	// Measure a mix of untouched PBWs and domains actually on the dense
	// censor's blocklist, so the streams being compared carry censorship
	// (and with it middlebox state worth leaking).
	domains := append([]string(nil), s.PBWDomains()[:4]...)
	domains = append(domains, s.World().ISP("OvertDense").HTTPList...)
	if len(domains) > 10 {
		domains = domains[:10]
	}
	sequential := campaignJSONL(t, s, 1, domains)
	parallel := campaignJSONL(t, s, 8, domains)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("pooled campaign diverged between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	fresh := campaignJSONL(t, s, 8, domains, withFreshReplicaWorlds())
	if !bytes.Equal(sequential, fresh) {
		t.Fatalf("pooled campaign diverged from fresh-world-per-task run:\n--- pooled ---\n%s\n--- fresh ---\n%s",
			sequential, fresh)
	}
	if !bytes.Contains(sequential, []byte(`"blocked":true`)) {
		t.Error("all-interceptive campaign observed no censorship at all")
	}
}

// TestPooledAllDetectorsDeterminism runs the full detector registry — the
// default campaign shape — through the pooled runner. The heavy detectors
// (fingerprint's tracer with its ICMP hooks and multi-minute virtual
// idles, evasion's packet filters, ooni's control fetches) leave the most
// runtime state behind, so this is the broadest leak check a Reset bug
// could fail.
func TestPooledAllDetectorsDeterminism(t *testing.T) {
	s := presetSession(t, "all-interceptive")
	domains := append([]string(nil), s.PBWDomains()[:1]...)
	domains = append(domains, s.World().ISP("OvertDense").HTTPList[0])
	run := func(workers int, opts ...Option) []byte {
		stream, err := s.Run(context.Background(), Campaign{Domains: domains},
			append([]Option{WithWorkers(workers), WithVantages("OvertDense", "Observer")}, opts...)...)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := stream.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	sequential := run(1)
	parallel := run(8)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("all-detector pooled campaign diverged between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	fresh := run(8, withFreshReplicaWorlds())
	if !bytes.Equal(sequential, fresh) {
		t.Fatalf("all-detector pooled campaign diverged from fresh-world-per-task run:\n--- pooled ---\n%s\n--- fresh ---\n%s",
			sequential, fresh)
	}
}

// TestNoCensorshipControl: the control preset yields zero positives for
// every detector — any hit is by construction a false positive.
func TestNoCensorshipControl(t *testing.T) {
	s := presetSession(t, "no-censorship")
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:8],
		Measurements: []Measurement{DNS(), HTTP(), HTTPS(), TCP(), Collateral()},
	}, WithWorkers(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	results, err := stream.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	for _, r := range results {
		if r.Blocked {
			t.Errorf("false positive on control world: %+v", r)
		}
	}
}

// TestPublicAPINoInternalTypes runs the apisurface analyzer over this
// package's non-test sources and fails on any finding. The analyzer
// (internal/analysis/apisurface) replaced the hand-rolled AST walk that
// used to live here: it works on resolved types rather than selector
// spelling, so aliased imports and indirect leaks are caught too. The
// documented oracle escape hatches — Session.World, Vantage.World,
// Vantage.Probe — carry //repolint:allow apisurface waivers at their
// declarations; everything else, the option surface in particular, must
// be fully public so an external caller can build any world from JSON
// alone.
func TestPublicAPINoInternalTypes(t *testing.T) {
	analysistest.RunClean(t, apisurface.Analyzer, ".", "repro/censor")
}
