package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricSpec names one metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. An "op" is one result (paper-sweep,
// loaded-campaign), one POST /v1/results (censord-ingest), one GET
// (bridge-http) or one Table 2 (coverage-scan); a latency sample is one
// campaign, one push from its due time, one GET or one Table 2.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced
// run; a layer a workload does not exercise reads 0.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	for _, d := range detectors {
		add("us/op", "censor.detector."+d+"_us_per_op")
	}
	add("us/op", "censor.task_us_per_op", "censor.merge_wait_us_per_op", "censor.task_overhead_us_per_op")
	add("count", "censor.replica_builds")
	add("us/op", "censor.sink.jsonl_us_per_op", "censor.sink.aggregate_us_per_op", "censor.drain_wait_us_per_op")
	add("count/op", "sim.events_per_op", "netsim.packets_per_op")
	add("ratio", "netsim.pool_hit_ratio")
	add("count/op", "middlebox.triggers_per_op")
	add("ratio", "middlebox.lost_race_ratio")
	add("count/op", "middlebox.flow_evictions_per_op", "trafficgen.flows_per_op")
	add("us", "monitor.decode_us_per_post", "monitor.writebatch_us_per_post", "monitor.query_us", "monitor.summary_us")
	add("count/op", "monitor.results_evicted_per_op")
	add("ms", "censord.push_p99_ms", "censord.query_p50_ms", "censord.query_p99_ms", "loadgen.late_p99_ms")
	add("us", "netbridge.get_p99_us", "netbridge.wake_p50_us", "netbridge.wake_p99_us")
	add("count/op", "netbridge.lease_cuts_per_op")
	add("us", "netbridge.dial_p50_us", "netbridge.resolve_p50_us")
	add("ratio", "netbridge.block_miss_ratio")
	for _, isp := range coverageISPs {
		add("s", "probe.coverage."+strings.ToLower(isp)+"_s")
	}
	add("s", "experiments.classify_s")
	add("count/op", "runtime.allocs_per_op")
	add("B/op", "runtime.bytes_per_op")
	add("ratio", "runtime.gc_cpu_share")
	for _, b := range cpuBuckets {
		add("ratio", "cpu."+b+"_share")
	}
	add("ratio", "trace_overhead")
	return out
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one workload run in a report.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// report is the JSON file a full benchmark set writes.
type report struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// provenance records where and from what a report was measured.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Date       string `json:"date"`
	Revision   string `json:"revision"`
	Dirty      string `json:"dirty"`
}

func newProvenance(seed int64) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Revision:   "unknown",
		Dirty:      "unknown",
	}
	// go build stamps the revision when it runs inside a git checkout; go
	// run does not, so fall back to asking git directly.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	if p.Revision == "unknown" {
		if out, err := exec.Command("git", "-C", moduleRoot(), "rev-parse", "HEAD").Output(); err == nil {
			p.Revision = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "-C", moduleRoot(), "status", "--porcelain").Output(); err == nil {
				p.Dirty = fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spec is the part of BENCHMARK.json the program reads back.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so the program finds it from the repository root and from bench/.
func loadSpec() (*spec, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

// loadRuns reads the runs in arg: a report file, or a directory
// whose *.json files are reports.
func loadRuns(arg string) ([]runRecord, error) {
	files := []string{arg}
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		files, err = filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var runs []runRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, r.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", arg)
	}
	return runs, nil
}

// compare prints, per workload and end-to-end metric, both sides' medians
// and whether B is within A's bound, whether every run of each side passed
// its checks, and whether the output digests of same-seed runs agree. It
// reports false when B got worse, lost a workload or a metric, failed a
// check, or produced other bytes.
func compare(w io.Writer, sp *spec, a, b []runRecord) (ok bool) {
	ok = true
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.name), runsOf(b, wl.name)
		switch {
		case len(ra) == 0 && len(rb) == 0:
			continue
		case len(rb) == 0:
			fmt.Fprintf(w, "%-16s %-16s MISSING: no runs on side B\n", wl.name, "runs")
			ok = false
			continue
		case len(ra) == 0:
			fmt.Fprintf(w, "%-16s %-16s new: no runs on side A\n", wl.name, "runs")
		}
		fa, fb := failedRuns(ra), failedRuns(rb)
		checks := "passed"
		if fb > 0 {
			checks, ok = "FAILED", false
		}
		fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s  %s\n", wl.name, "checks",
			fmt.Sprintf("%d/%d failed", fa, len(ra)), fmt.Sprintf("%d/%d failed", fb, len(rb)), "", checks)
		if len(ra) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			ma, mb := medianOf(ra, m.Name), medianOf(rb, m.Name)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within"
			switch {
			case math.IsNaN(ma) || math.IsNaN(mb) || math.IsInf(change, 0):
				verdict, ok = "MISSING", false
			case worse > m.Bound:
				verdict, ok = "worse", false
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+7.1f%%  %s (bound %.0f%%)\n",
				wl.name, m.Name, ma, mb, 100*change, verdict, 100*m.Bound)
		}
		digests := "-"
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed != y.Seed || x.Digest == "" || y.Digest == "" {
					continue
				}
				if x.Digest != y.Digest {
					digests, ok = "DIFFERENT", false
				} else if digests == "-" {
					digests = "identical"
				}
			}
		}
		fmt.Fprintf(w, "%-16s %-16s %s\n", wl.name, "digest", digests)
	}
	return ok
}

func runsOf(runs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// passed reports whether the run passed every check and failed no op.
func (r runRecord) passed() bool {
	return r.Correct && r.Failed == 0 && len(r.Problems) == 0
}

func failedRuns(runs []runRecord) int {
	n := 0
	for _, r := range runs {
		if !r.passed() {
			n++
		}
	}
	return n
}

// medianOf is the median of a metric over the runs that passed and report
// it; NaN when there are none.
func medianOf(runs []runRecord, name string) float64 {
	vs := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.passed() {
			vs = append(vs, m.Value)
		}
	}
	return median(vs)
}
