package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if got := reg.Counter("c_total"); got != c {
		t.Fatalf("registry did not return the same counter")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	reg.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("reset left values: c=%d g=%d", c.Value(), g.Value())
	}
	// Identity survives Reset: the pointer handed out before still works.
	c.Inc()
	if reg.Counter("c_total").Value() != 1 {
		t.Fatalf("instrument identity lost across Reset")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x")
	var tr *Tracer
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(2)
	c.Reset()
	g.Set(1)
	g.Add(1)
	g.Reset()
	h.Observe(1)
	h.Reset()
	tr.Finish(tr.Start("s", "c", 0))
	tr.Instant("i", "c", 0, "", 0)
	tr.SetClock(WallClock)
	tr.Reset()
	reg.Reset()
	reg.AddTo(NewRegistry())
	NewRegistry().AddTo(reg)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatalf("nil instruments recorded values")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h_ns")
	h.Observe(0)  // bucket 0
	h.Observe(1)  // bucket 1
	h.Observe(2)  // bucket 2: [2,4)
	h.Observe(3)  // bucket 2
	h.Observe(-5) // clamps to 0, bucket 0
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 6 {
		t.Fatalf("sum = %d, want 6", h.Sum())
	}
	for i, want := range map[int]uint64{0: 2, 1: 1, 2: 2, 3: 0} {
		if got := h.Bucket(i); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestName(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Fatalf("Name no-labels = %q", got)
	}
	if got := Name("x_total", "box", "b0"); got != `x_total{box="b0"}` {
		t.Fatalf("Name one label = %q", got)
	}
	if got := Name("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("Name two labels = %q", got)
	}
}

func TestAddToMerges(t *testing.T) {
	src, dst := NewRegistry(), NewRegistry()
	src.Counter("c_total").Add(3)
	src.Counter("zero_total") // zero counters still materialize in dst
	src.Gauge("g").Set(2)
	src.Histogram("h").Observe(5)
	dst.Counter("c_total").Add(1)
	src.AddTo(dst)
	if got := dst.Counter("c_total").Value(); got != 4 {
		t.Fatalf("merged counter = %d, want 4", got)
	}
	if got := dst.Counter("zero_total").Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0 (but present)", got)
	}
	if got := dst.Gauge("g").Value(); got != 2 {
		t.Fatalf("merged gauge = %d, want 2", got)
	}
	if dst.Histogram("h").Count() != 1 || dst.Histogram("h").Sum() != 5 {
		t.Fatalf("merged histogram count/sum = %d/%d", dst.Histogram("h").Count(), dst.Histogram("h").Sum())
	}
	var sb strings.Builder
	if err := dst.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "zero_total 0\n") {
		t.Fatalf("zero counter missing from exposition:\n%s", sb.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Name("evictions_total", "box", "b0")).Add(2)
	reg.Counter(Name("evictions_total", "box", "b1")).Add(3)
	reg.Gauge("depth").Set(9)
	reg.Histogram("lat_ns").Observe(3) // bucket 2, le=3
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE depth gauge\ndepth 9\n",
		"# TYPE evictions_total counter\n",
		`evictions_total{box="b0"} 2`,
		`evictions_total{box="b1"} 3`,
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="0"} 0`,
		`lat_ns_bucket{le="3"} 1`,
		`lat_ns_bucket{le="+Inf"} 1`,
		"lat_ns_sum 3",
		"lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One # TYPE line per base name, even with two labeled series.
	if strings.Count(out, "# TYPE evictions_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
	// Deterministic output: same registry, same bytes.
	var sb2 strings.Builder
	reg.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Fatalf("exposition not reproducible")
	}
}

func TestTracerSpans(t *testing.T) {
	now := int64(1000)
	tr := NewTracer(func() int64 { return now })
	id := tr.Start("task", "worker", 1)
	now = 2500
	tr.Finish(id)
	tr.Instant("wake", "pump", 0, "wake_ns", 42)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Start != 1000 || spans[0].End != 2500 {
		t.Fatalf("span times = %d..%d", spans[0].Start, spans[0].End)
	}
	if spans[1].End != -1 || spans[1].Arg != "wake_ns" || spans[1].ArgV != 42 {
		t.Fatalf("instant = %+v", spans[1])
	}

	var chrome strings.Builder
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	out := chrome.String()
	for _, want := range []string{
		`{"name":"task","cat":"worker","ph":"X","pid":0,"tid":1,"ts":1.000,"dur":1.500}`, // 1000ns start, 1.5us dur
		`"ph":"i"`, `"args":{"wake_ns":42}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q:\n%s", want, out)
		}
	}

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("reset left %d spans", tr.Len())
	}
}

// TestTelemetryZeroAlloc pins the hot-path contract the repolint
// hotpathalloc markers promise: live instruments and a warmed tracer
// never allocate. It mirrors TestForwardSteadyStateZeroAlloc in netsim.
func TestTelemetryZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("h_ns")
	tr := NewTracer(func() int64 { return 0 })
	// Warm the tracer's span buffer: Reset keeps capacity.
	for i := 0; i < 8; i++ {
		tr.Finish(tr.Start("warm", "t", 0))
	}
	tr.Reset()

	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		g.Add(-1)
		h.Observe(17)
		tr.Finish(tr.Start("s", "t", 0))
		tr.Instant("i", "t", 0, "v", 1)
		tr.Reset()
	}); n != 0 {
		t.Fatalf("telemetry hot path allocates: %v allocs/op", n)
	}

	// Stripped telemetry (nil instruments) must also be alloc-free.
	var nilReg *Registry
	nc := nilReg.Counter("c")
	ng := nilReg.Gauge("g")
	nh := nilReg.Histogram("h")
	var ntr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		nc.Inc()
		ng.Set(1)
		nh.Observe(1)
		ntr.Finish(ntr.Start("s", "t", 0))
	}); n != 0 {
		t.Fatalf("nil telemetry allocates: %v allocs/op", n)
	}
}
