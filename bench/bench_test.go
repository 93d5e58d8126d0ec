package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func tinyParams() params {
	return params{seed: 7, seconds: 300 * time.Millisecond, tiny: true}
}

// lastResult parses the JSON result line emit printed last.
func lastResult(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMetrics asserts res reports exactly the named metrics, with their
// units and finite values.
func checkMetrics(t *testing.T, res result, want map[string]string, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars) vs program %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, names, units []string, specs []metricSpec) {
		if len(names) != len(specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(specs))
			return
		}
		for i, s := range specs {
			if names[i] != s.name || units[i] != s.unit || !nameRE.MatchString(s.name) || len(s.name) > 64 {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], s.name, s.unit)
			}
		}
	}
	var names, units []string
	for _, m := range sp.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	check("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range sp.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, perLayer)
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks that each reports every metric BENCHMARK.json names and
// passes its own checks.
func TestWorkloads(t *testing.T) {
	e2e := map[string]string{}
	for _, s := range endToEnd {
		e2e[s.name] = s.unit
	}
	layers := map[string]string{}
	for _, s := range perLayer {
		layers[s.name] = s.unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := tinyParams()
			_, o, err := measure(w, p, false, "")
			if err != nil {
				t.Fatal(err)
			}
			values, err := endToEndMetrics(o)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			emit(&out, w.name, o, values, endToEnd)
			res := lastResult(t, out.Bytes())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: %+v\n%s", res, out.String())
			}
			checkMetrics(t, res, e2e, true)

			r, o, err := measure(w, p, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			lv, err := r.layerMetrics(o, values["ops_per_s"])
			if err != nil {
				t.Fatal(err)
			}
			out.Reset()
			emit(&out, w.name, o, lv, perLayer)
			res = lastResult(t, out.Bytes())
			if !res.Correct {
				t.Fatalf("traced run: %+v\n%s", res, out.String())
			}
			checkMetrics(t, res, layers, false)
			sum := 0.0
			for _, b := range cpuBuckets {
				sum += lv["cpu."+b+"_share"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu shares sum to %v", sum)
			}
		})
	}
}

func TestCorruptedDigestFailsRun(t *testing.T) {
	w, _ := lookupWorkload("paper-sweep")
	p := tinyParams()
	_, o, err := measure(w, p, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 0 || o.digest == "" {
		t.Fatalf("clean run: digest %q, problems %v", o.digest, o.problems)
	}
	p.expect = strings.Repeat("0", len(o.digest))
	_, o, err = measure(w, p, false, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if res := emit(&out, w.name, o, map[string]float64{}, endToEnd); res.Correct {
		t.Fatalf("run with a corrupted expected digest passed:\n%s", out.String())
	}
}

// pprofTop has the rows of real `go tool pprof -top -files -unit=ms`
// output from a profile of this benchmark, including a file split over
// several rows and "(inline)" rows, with the build's module root and
// GOROOT replaced by /work/repro and /toolchain/go and the sample counts
// rounded to a 1000ms total.
const pprofTop = `File: bench
Type: cpu
Duration: 4.24s, Total samples = 1000ms (23.58%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      300ms 30.00%  /toolchain/go/src/runtime/mgcmark.go
      60ms  6.00% 36.00%       60ms  6.00%  /toolchain/go/src/internal/runtime/maps/group.go (inline)
     200ms 20.00% 56.00%      400ms 40.00%  /work/repro/internal/sim/engine.go
      50ms  5.00% 61.00%       50ms  5.00%  /work/repro/internal/sim/engine.go (inline)
      40ms  4.00% 65.00%       40ms  4.00%  /work/repro/internal/sim/engine.go
      70ms  7.00% 72.00%      120ms 12.00%  /toolchain/go/src/encoding/json/encode.go
      60ms  6.00% 78.00%       90ms  9.00%  /toolchain/go/src/net/http/server.go
      20ms  2.00% 80.00%       20ms  2.00%  /toolchain/go/src/internal/poll/fd_unix.go
      30ms  3.00% 83.00%       30ms  3.00%  /toolchain/go/src/net/netip/netip.go (inline)
      40ms  4.00% 87.00%       40ms  4.00%  /work/repro/internal/httpwire/response.go
      30ms  3.00% 90.00%       30ms  3.00%  /work/repro/internal/dnswire/dnswire.go
      30ms  3.00% 93.00%       70ms  7.00%  /work/repro/censor/sink.go
      20ms  2.00% 95.00%       20ms  2.00%  /work/repro/internal/pcapwire/pcapwire.go
      20ms  2.00% 97.00%       20ms  2.00%  /work/repro/bench/campaign.go
      30ms  3.00% 100.0%      620ms 62.00%  /toolchain/go/src/internal/bytealg/indexbyte_amd64.s
`

func TestPprofBuckets(t *testing.T) {
	got, err := parsePprofTop([]byte(pprofTop), "/work/repro", "/toolchain/go")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // flat seconds
		"runtime": 0.36, // runtime plus internal/runtime/maps
		"sim":     0.29, // three rows, one of them inlined, summed
		"json":    0.07,
		"nethttp": 0.08, // net/http and internal/poll; net/netip is not networking
		"wire":    0.07, // httpwire and dnswire
		"censor":  0.03,
		"other":   0.10, // netip, pcapwire, the benchmark itself, bytealg
	}
	for b, v := range want {
		if math.Abs(got[b]-v) > 1e-9 {
			t.Errorf("bucket %s = %v, want %v", b, got[b], v)
		}
	}
	for b := range got {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %s = %v", b, got[b])
		}
	}
	if _, err := parsePprofTop([]byte("no table here\n"), "/work/repro", "/toolchain/go"); err == nil {
		t.Error("output without a table header parsed")
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	rec := func(ops, setup float64, digest string) runRecord {
		m := map[string]metric{}
		for _, s := range endToEnd {
			m[s.name] = metric{Value: 1, Unit: s.unit}
		}
		m["ops_per_s"] = metric{Value: ops, Unit: "ops/s"}
		m["setup_s"] = metric{Value: setup, Unit: "s"}
		return runRecord{Workload: "paper-sweep", Seed: 1, Correct: true, Attempted: 10, Metrics: m, Digest: digest}
	}
	incorrect := rec(100, 1, "d")
	incorrect.Correct = false
	failedOps := rec(100, 1, "d")
	failedOps.Failed = 1
	problem := rec(100, 1, "d")
	problem.Problems = []string{"final /v1/summary differs"}
	noMetric := rec(100, 1, "d")
	delete(noMetric.Metrics, "latency_p50_ms")
	crashed := runRecord{Workload: "paper-sweep", Seed: 1, Problems: []string{"exit status 2"}}
	other := rec(100, 1, "d")
	other.Workload = "coverage-scan"

	base := []runRecord{rec(100, 1, "d")}
	for _, c := range []struct {
		name string
		b    runRecord
		ok   bool
		word string
	}{
		{"same", rec(100, 1, "d"), true, "within"},
		{"faster", rec(150, 1, "d"), true, "better"},
		{"slower", rec(50, 1, "d"), false, "worse"},
		{"slower set-up", rec(100, 2, "d"), false, "worse"},
		{"other bytes", rec(100, 1, "e"), false, "DIFFERENT"},
		{"failed check", incorrect, false, "FAILED"},
		{"failed op", failedOps, false, "FAILED"},
		{"failed check text", problem, false, "FAILED"},
		{"metric not reported", noMetric, false, "MISSING"},
		{"child crashed", crashed, false, "MISSING"},
		{"workload not run", other, false, "MISSING"},
	} {
		var out bytes.Buffer
		if ok := compare(&out, sp, base, []runRecord{c.b}); ok != c.ok || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: ok=%v, want %v with %q in\n%s", c.name, ok, c.ok, c.word, out.String())
		}
	}
}
