package censor

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

// echoDetail is the custom detector's typed payload, proving external
// details survive every sink.
type echoDetail struct {
	Length int    `json:"length"`
	Tag    string `json:"tag"`
}

// echoMeasurement is an externally registered detector: deterministic,
// stateless, verdicts derived from the domain name alone.
type echoMeasurement struct{}

func (echoMeasurement) Kind() string { return "echo" }

func (m echoMeasurement) Measure(ctx context.Context, v *Vantage, domain string) Result {
	res := base(m, v, domain)
	if strings.HasPrefix(domain, "porn-") || strings.HasPrefix(domain, "escort-") {
		res.Blocked = true
		res.Mechanism = "echo-list"
		res.Censor = v.Name()
	}
	res.Detail = echoDetail{Length: len(domain), Tag: "echo"}
	return res
}

func init() { Register("echo", func() Measurement { return echoMeasurement{} }) }

// TestCSVSinkEmptyStream: a campaign that matches nothing still produces
// the documented fixed header.
func TestCSVSinkEmptyStream(t *testing.T) {
	s := session(t)
	stream, err := s.Run(context.Background(), Campaign{Domains: []string{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := stream.Drain(NewCSVSink(&buf)); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != strings.Join(csvHeader, ",") {
		t.Errorf("empty campaign CSV = %q, want header row only", got)
	}
}

// TestExternalDetectorThroughSinks proves the registry extension point
// end to end: an externally Register-ed detector resolves by name, runs
// in a parallel campaign, and its results — typed Detail included —
// round-trip through every shipped Sink, byte-identically across worker
// counts.
func TestExternalDetectorThroughSinks(t *testing.T) {
	s := session(t)
	m, ok := Lookup("echo")
	if !ok {
		t.Fatal("externally registered detector not found in registry")
	}
	campaign := Campaign{
		Domains:      s.PBWDomains()[:6],
		Measurements: []Measurement{m},
	}

	type output struct {
		jsonl, csvText, summary string
	}
	runWith := func(workers int) output {
		stream, err := s.Run(context.Background(), campaign,
			WithVantages("Airtel", "MTNL"), WithWorkers(workers))
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var jb, cb bytes.Buffer
		agg := NewAggregateSink()
		if err := stream.Drain(NewJSONLSink(&jb), NewCSVSink(&cb), agg); err != nil {
			t.Fatalf("Drain(workers=%d): %v", workers, err)
		}
		return output{jsonl: jb.String(), csvText: cb.String(), summary: agg.Summary()}
	}

	seq := runWith(1)
	par := runWith(4)
	if seq != par {
		t.Fatalf("parallel campaign output diverged from sequential:\n--- workers=1 ---\n%+v\n--- workers=4 ---\n%+v", seq, par)
	}

	// JSONL: every record decodes, and the typed detail is recoverable.
	results, err := ReadJSONL(strings.NewReader(seq.jsonl))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	wantLen := 2 * len(campaign.Domains)
	if len(results) != wantLen {
		t.Fatalf("got %d JSONL results, want %d", len(results), wantLen)
	}
	for i, r := range results {
		if r.Measurement != "echo" {
			t.Fatalf("result %d measurement = %q", i, r.Measurement)
		}
		d, ok := DetailAs[echoDetail](r)
		if !ok {
			t.Fatalf("result %d: detail did not round-trip: %#v", i, r.Detail)
		}
		if d.Tag != "echo" || d.Length != len(r.Domain) {
			t.Errorf("result %d detail = %+v", i, d)
		}
	}

	// CSV: header plus one record per result, detail in the last column.
	records, err := csv.NewReader(strings.NewReader(seq.csvText)).ReadAll()
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	if len(records) != wantLen+1 {
		t.Fatalf("got %d CSV rows, want %d", len(records), wantLen+1)
	}
	if got := strings.Join(records[0], ","); got != strings.Join(csvHeader, ",") {
		t.Errorf("csv header = %q", got)
	}
	for _, rec := range records[1:] {
		if !strings.Contains(rec[len(rec)-1], `"tag":"echo"`) {
			t.Errorf("csv detail column = %q", rec[len(rec)-1])
		}
	}

	// Aggregate: tallies match a direct count over the JSONL records.
	agg := NewAggregateSink()
	if err := agg.WriteBatch(results); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	blocked := map[string]int{}
	for _, r := range results {
		if r.Blocked {
			blocked[r.Vantage]++
		}
	}
	if got := agg.Vantages(); len(got) != 2 || got[0] != "Airtel" || got[1] != "MTNL" {
		t.Fatalf("aggregate vantages = %v", got)
	}
	for _, v := range agg.Vantages() {
		tl := agg.TallyFor(v)
		if tl.Total != len(campaign.Domains) || tl.Blocked != blocked[v] {
			t.Errorf("%s tally = %+v, want total=%d blocked=%d", v, tl, len(campaign.Domains), blocked[v])
		}
	}
	if !strings.Contains(seq.summary, "Campaign summary") {
		t.Errorf("summary render:\n%s", seq.summary)
	}
}
