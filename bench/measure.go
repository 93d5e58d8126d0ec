package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/obs"
)

// run is one workload execution: its inputs, and in a traced run the
// instruments the workload hands to the layers it drives.
type run struct {
	params
	traced bool
	dir    string             // traced: where cpu.prof and trace.json go
	reg    *obs.Registry      // traced: telemetry registry for the layers
	spans  *obs.Tracer        // traced: the benchmark's own spans, wall clock
	layers map[string]float64 // traced: per-layer values the workload measured

	windows  int      // timed windows opened so far
	profiles []string // traced: one CPU profile per timed window
	rtStart  rtSample
	rtDelta  rtSample
}

// outcome is what a workload reports back.
type outcome struct {
	setup     []time.Duration // each set-up repetition
	latencies []time.Duration // one per timed request
	rates     []float64       // ops/s of each timed sample; ops_per_s is their median
	ops       int             // ops done inside the begin/end windows
	attempted int
	failed    int
	digest    string   // output digest, "" when the output is not deterministic
	problems  []string // failed correctness checks
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkDigest records d as op output and fails the run when it differs
// from the expected digest: the one given in params, else the first op's.
func (o *outcome) checkDigest(p params, d string) {
	if o.digest == "" {
		o.digest = d
		if p.expect == "" {
			return
		}
	}
	want := o.digest
	if p.expect != "" {
		want = p.expect
	}
	if d != want {
		o.problem("output digest %s differs from expected %s", d, want)
	}
}

// repeatSetup runs fn reps times, each on a freshly collected heap,
// recording each duration, and returns the last repetition's state;
// earlier states are released with their close func before the next one
// is built.
func repeatSetup[T any](p params, o *outcome, fn func() (T, func(), error)) (T, func(), error) {
	var (
		state   T
		release = func() {}
	)
	for i := 0; i < p.setupReps(); i++ {
		release()
		runtime.GC()
		start := time.Now()
		s, rel, err := fn()
		o.setup = append(o.setup, time.Since(start))
		if err != nil {
			var zero T
			return zero, func() {}, err
		}
		state, release = s, rel
	}
	return state, release, nil
}

// begin opens a timed window on a freshly collected heap, so garbage left
// by set-up does not land on the window's GC bill. The first window also
// hands set-up's freed memory back to the OS and restarts the RSS peak, so
// rss_peak_mb is the workload's own, not that of its set-up repetitions.
// In a traced run it also starts a CPU profile and samples the runtime
// counters; windows may repeat, their deltas add up.
func (r *run) begin() error {
	if r.windows == 0 {
		debug.FreeOSMemory()
		if err := resetRSSPeak(); err != nil {
			return err
		}
	} else {
		runtime.GC()
	}
	r.windows++
	if !r.traced {
		return nil
	}
	path := filepath.Join(r.dir, fmt.Sprintf("cpu-%03d.prof", len(r.profiles)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.profiles = append(r.profiles, path)
	r.rtStart = readRuntime()
	return nil
}

// end closes the window begin opened.
func (r *run) end() {
	if !r.traced {
		return
	}
	r.rtDelta = r.rtDelta.add(readRuntime().sub(r.rtStart))
	pprof.StopCPUProfile()
}

// span opens one of the benchmark's own spans; finish it with r.spans.Finish.
func (r *run) span(name string, tid int) int {
	return r.spans.Start(name, "bench", tid)
}

// rtSample holds the runtime/metrics counters a window's delta is taken of.
type rtSample struct {
	allocs, bytes, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocs + b.allocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// cpuBuckets are the per-layer CPU buckets, named after this repository's
// modules plus the standard-library layers the workloads lean on.
var cpuBuckets = []string{
	"sim", "netsim", "netpkt", "tcpsim", "middlebox", "dnssim", "websim", "probe",
	"trafficgen", "ispnet", "censor", "wire", "difflib", "monitor", "netbridge",
	"obs", "experiments", "json", "nethttp", "runtime", "other",
}

// bucketOf maps a source file from a CPU profile to its bucket. Files
// under modRoot are bucketed by module directory, files under goroot by
// standard-library package.
func bucketOf(file, modRoot, goroot string) string {
	if rel, ok := strings.CutPrefix(file, modRoot+"/"); ok {
		dir := filepath.ToSlash(filepath.Dir(rel))
		switch dir {
		case "censor", "monitor", "netbridge", "obs":
			return dir
		case "internal/dnswire", "internal/httpwire", "internal/tlswire":
			return "wire"
		}
		if name, ok := strings.CutPrefix(dir, "internal/"); ok && slices.Contains(cpuBuckets, name) {
			return name
		}
		return "other"
	}
	if rel, ok := strings.CutPrefix(file, goroot+"/src/"); ok {
		dir := filepath.ToSlash(filepath.Dir(rel))
		switch {
		case dir == "runtime" || strings.HasPrefix(dir, "runtime/") || strings.HasPrefix(dir, "internal/runtime/"):
			return "runtime"
		case dir == "encoding/json":
			return "json"
		case dir == "net" || dir == "internal/poll" || (strings.HasPrefix(dir, "net/") && dir != "net/netip"):
			return "nethttp"
		}
	}
	return "other"
}

// parsePprofTop sums the flat column of `go tool pprof -top -files`
// output per bucket. Inlined copies of a file appear as extra
// "(inline)" rows and are summed with it.
func parsePprofTop(out []byte, modRoot, goroot string) (map[string]float64, error) {
	sums := map[string]float64{}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		sums[bucketOf(fields[5], modRoot, goroot)] += flat.Seconds()
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no table header")
	}
	return sums, nil
}

// cpuShares merges the run's CPU profiles into dir/cpu.prof and returns
// each bucket's share of the flat samples.
func (r *run) cpuShares() (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	merged := filepath.Join(r.dir, "cpu.prof")
	args := append([]string{"tool", "pprof", "-proto", "-output", merged}, r.profiles...)
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("pprof merge: %v: %s", err, out)
	}
	for _, p := range r.profiles {
		os.Remove(p)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-files", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", merged).Output()
	if err != nil {
		return nil, fmt.Errorf("pprof top: %w", err)
	}
	goroot, err := exec.Command(goBin, "env", "GOROOT").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOROOT: %w", err)
	}
	sums, err := parsePprofTop(out, moduleRoot(), strings.TrimSpace(string(goroot)))
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range sums {
		total += v
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = sums[b] / total
		}
	}
	return shares, nil
}

// moduleRoot is the repository root this binary was built from: the
// parent of the benchmark's own source directory, as recorded in the
// binary and in every CPU profile it writes.
func moduleRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(filepath.Dir(file))
}

// resetRSSPeak sets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later).
func resetRSSPeak() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset RSS peak: %w", err)
	}
	return nil
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile returns the nearest-rank q-quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// ms and us express a duration in milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float values (sorted in place).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// histQuantile estimates a quantile of a power-of-two obs.Histogram,
// interpolating linearly inside the bucket that holds it.
func histQuantile(h *obs.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	seen := 0.0
	for i := 0; i <= 64; i++ {
		c := float64(h.Bucket(i))
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return 0
}

// sumPrefix adds up every counter in reg whose name starts with prefix —
// the per-box series of one middlebox counter, for instance.
func sumPrefix(reg *obs.Registry, prefix string) float64 {
	total := 0.0
	for name, v := range reg.Snapshot() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		switch x := v.(type) {
		case uint64:
			total += float64(x)
		case int64:
			total += float64(x)
		}
	}
	return total
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
