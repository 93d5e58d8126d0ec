// Command bench is the repository's benchmark: five workloads, each run in
// its own process, that time the paths people use (campaigns, censord
// ingest over HTTP, real sockets through netbridge, paper-table
// regeneration) and check every output they time.
//
// Build and run it from the repository root with bench/run.sh, which keeps
// the build inside the checkout:
//
//	bash bench/run.sh                               # all workloads, untraced
//	bash bench/run.sh -trace out/                   # plus the traced pass, per-layer table
//	bash bench/run.sh -workload paper-sweep -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare A.json B.json        # verdicts under BENCHMARK.json's bounds
//
// With -workload the program runs that one workload and prints one
// "workload metric value unit" line per metric, then a JSON result line:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1 (or
// -trace DIR). Without -workload it runs every workload in a child process,
// prints the same lines, and writes a JSON report with provenance.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/obs"
)

// params are one run's inputs. Every world keeps its preset's calibrated
// seed, so that each seed does the same work; the seed orders the domains
// and draws the open-loop arrival times.
type params struct {
	seed    int64
	seconds time.Duration
	// tiny shrinks every workload to seconds of work (tests only).
	tiny bool
	// expect, when set, is the digest every op's output must have
	// (tests only); otherwise ops must agree with the run's first op.
	expect string
}

func (p params) setupReps() int {
	if p.tiny {
		return 1
	}
	return 5
}

// workload is one named input set.
type workload struct {
	name string
	run  func(r *run) (*outcome, error)
}

var workloads = []workload{
	{"paper-sweep", runPaperSweep},
	{"loaded-campaign", runLoadedCampaign},
	{"censord-ingest", runIngest},
	{"bridge-http", runBridge},
	{"coverage-scan", runCoverage},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultTraceDir holds traced artifacts when -trace is 1.
const defaultTraceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "run only this workload (default: all, each in a child process)")
	seed := flag.Int64("seed", 0, "input seed: domain order and open-loop arrival times (0 keeps catalog order)")
	seconds := flag.Float64("seconds", 10, "how long each workload measures")
	trace := flag.String("trace", "0", "0: untraced; 1 or DIR: add the traced pass, writing cpu.prof and trace.json under DIR")
	reportPath := flag.String("report", ".bench_build/report.json", "where a run of all workloads writes its JSON report")
	cmp := flag.Bool("compare", false, "compare two reports (files or directories of them): bench -compare A B")
	flag.Parse()

	if *cmp {
		os.Exit(runCompare(flag.Args()))
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *name == "" {
		if !runAll(p, *trace, *reportPath) {
			os.Exit(1)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOne(w, p, *trace, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its lines and its
// JSON result. A traced run first runs the workload untraced in a child
// process, for the end-to-end numbers and the tracing overhead.
func runOne(w workload, p params, trace string, stdout io.Writer) (result, error) {
	if trace == "0" {
		_, o, err := measure(w, p, false, "")
		if err != nil {
			return result{}, err
		}
		metrics, err := endToEndMetrics(o)
		if err != nil {
			return result{}, err
		}
		return emit(stdout, w.name, o, metrics, endToEnd), nil
	}
	dir := trace
	if trace == "1" {
		dir = filepath.Join(defaultTraceDir, w.name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	ref, err := runChild(w.name, p, "0", stdout)
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "untraced.json"), ref); err != nil {
		return result{}, err
	}
	r, o, err := measure(w, p, true, dir)
	if err != nil {
		return result{}, err
	}
	if ref.Digest != o.digest {
		o.problem("traced output digest %s differs from untraced %s", o.digest, ref.Digest)
	}
	if !ref.Correct {
		o.problem("untraced pass failed its checks")
	}
	layers, err := r.layerMetrics(o, ref.Metrics["ops_per_s"].Value)
	if err != nil {
		return result{}, err
	}
	return emit(stdout, w.name, o, layers, perLayer), nil
}

// measure executes a workload in this process.
func measure(w workload, p params, traced bool, dir string) (*run, *outcome, error) {
	r := &run{params: p, traced: traced, dir: dir}
	if traced {
		r.reg = obs.NewRegistry()
		r.spans = obs.NewTracer(obs.WallClock)
		r.layers = map[string]float64{}
	}
	o, err := w.run(r)
	if err != nil {
		return nil, nil, err
	}
	if o.ops == 0 || len(o.rates) == 0 || len(o.latencies) == 0 || len(o.setup) == 0 {
		return nil, nil, fmt.Errorf("workload measured nothing (%d ops)", o.ops)
	}
	return r, o, nil
}

// endToEndMetrics turns an untraced outcome into the end-to-end metrics.
func endToEndMetrics(o *outcome) (map[string]float64, error) {
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	return map[string]float64{
		"setup_s":        median(setup),
		"ops_per_s":      median(o.rates),
		"latency_p50_ms": ms(quantile(o.latencies, 0.50)),
		"rss_peak_mb":    rss,
	}, nil
}

// layerMetrics completes a traced run's per-layer values: CPU buckets,
// runtime counters, and the overhead against the untraced ops_per_s.
func (r *run) layerMetrics(o *outcome, untracedOps float64) (map[string]float64, error) {
	shares, err := r.cpuShares()
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		r.layers["cpu."+b+"_share"] = v
	}
	ops := float64(o.ops)
	r.layers["runtime.allocs_per_op"] = ratio(r.rtDelta.allocs, ops)
	r.layers["runtime.bytes_per_op"] = ratio(r.rtDelta.bytes, ops)
	r.layers["runtime.gc_cpu_share"] = ratio(r.rtDelta.gcCPU, r.rtDelta.totalCPU)
	r.layers["trace_overhead"] = ratio(untracedOps-median(o.rates), untracedOps)

	f, err := os.Create(filepath.Join(r.dir, "trace.json"))
	if err != nil {
		return nil, err
	}
	werr := r.spans.WriteChromeTrace(f)
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return nil, fmt.Errorf("trace.json: %w", werr)
	}
	return r.layers, nil
}

// emit prints one line per metric, the digest and any failed check, then
// the JSON result line.
func emit(w io.Writer, name string, o *outcome, values map[string]float64, specs []metricSpec) result {
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		v := values[s.name]
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "%s %s %s %s\n", name, s.name, strconv.FormatFloat(v, 'g', -1, 64), s.unit)
	}
	if o.digest != "" {
		fmt.Fprintf(w, "%s digest %s\n", name, o.digest)
	}
	for _, pr := range o.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", name, pr)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res
}

// runChild runs one workload in a child process, relaying its lines to
// stdout, and returns its result with the digest and failed checks it
// printed.
func runChild(name string, p params, trace string, stdout io.Writer) (runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	cmd := exec.Command(self, "-workload", name,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds.Seconds(), 'g', -1, 64),
		"-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return runRecord{}, err
	}
	if err := cmd.Start(); err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Workload: name, Seed: p.seed, Seconds: p.seconds.Seconds()}
	var last []byte
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte("{")) {
			last = append(last[:0], line...)
			continue
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if digest, ok := strings.CutPrefix(string(line), name+" digest "); ok {
			rec.Digest = digest
		}
		if pr, ok := strings.CutPrefix(string(line), name+" FAILED "); ok {
			rec.Problems = append(rec.Problems, pr)
		}
	}
	werr := cmd.Wait()
	if last == nil {
		if werr == nil {
			werr = fmt.Errorf("no result line")
		}
		return rec, werr
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	rec.Correct, rec.Attempted, rec.Failed, rec.Metrics = res.Correct, res.Attempted, res.Failed, res.Metrics
	return rec, nil
}

// runAll runs every workload in its own child process and writes the
// report. It reports whether every run passed its checks.
func runAll(p params, trace, reportPath string) bool {
	rep := report{Provenance: newProvenance(p.seed)}
	prov, _ := json.Marshal(rep.Provenance)
	fmt.Printf("provenance %s\n", prov)
	if trace == "1" {
		trace = defaultTraceDir
	}
	ok := true
	for _, w := range workloads {
		childTrace := "0"
		if trace != "0" {
			childTrace = filepath.Join(trace, w.name)
		}
		rec, err := runChild(w.name, p, childTrace, os.Stdout)
		if err == nil && trace != "0" {
			rec.Layers = rec.Metrics
			var ref runRecord
			if ref, err = readRecord(filepath.Join(childTrace, "untraced.json")); err == nil {
				rec.Metrics, rec.Digest = ref.Metrics, ref.Digest
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			rec.Problems = append(rec.Problems, err.Error())
			rec.Correct = false
		}
		ok = ok && rec.Correct
		rep.Runs = append(rep.Runs, rec)
	}
	err := os.MkdirAll(filepath.Dir(reportPath), 0o755)
	if err == nil {
		err = writeJSON(reportPath, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: report: %v\n", err)
		ok = false
	} else {
		fmt.Printf("report %s\n", reportPath)
	}
	if !ok {
		fmt.Println("FAILED: a workload failed its checks")
	}
	return ok
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A B (report files or directories of them)")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if !compare(os.Stdout, sp, a, b) {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (runRecord, error) {
	var rec runRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	return rec, json.Unmarshal(data, &rec)
}
