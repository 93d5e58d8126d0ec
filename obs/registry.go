package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry is a get-or-create collection of instruments keyed by full
// name (base plus optional {label="value"} suffix, see Name). Lookup
// and creation take a mutex; the instruments themselves are lock-free
// atomics, so the pattern is: resolve instruments once at construction
// time, then Inc/Set/Observe freely from hot paths.
//
// A nil Registry hands out nil instruments, which are no-ops — this is
// how sim.Engine.StripTelemetry turns the whole layer off without a
// single call-site change.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Reset rewinds every registered instrument to zero. Instrument
// identity is preserved: pointers handed out before Reset keep working,
// which is what lets World.Reset restore a replica's registry to the
// just-constructed state without re-wiring a single call site.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// AddTo accumulates every instrument's current value into the
// same-named instrument of dst, creating instruments in dst as needed.
// Counter and histogram contents add; gauges add their levels (a world
// gauge is normally back at zero by merge time, so sums stay
// worker-count-invariant). AddTo with a nil receiver or nil dst is a
// no-op. It is safe to call concurrently against a shared dst.
func (r *Registry) AddTo(dst *Registry) {
	if r == nil || dst == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			dst.Counter(name).Add(v)
		} else {
			dst.Counter(name) // still materialize, so /metrics shows zeros
		}
	}
	for name, g := range r.gauges {
		dst.Gauge(name).Add(g.Value())
	}
	for name, h := range r.hists {
		dst.Histogram(name).addFrom(h)
	}
}

// WritePrometheus writes every instrument in Prometheus text exposition
// format (version 0.0.4), sorted by name so output is reproducible
// regardless of registration order. Histograms expose cumulative
// power-of-two `le` buckets plus `_sum` and `_count` series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type row struct {
		name string // full name incl. labels
		kind string // counter | gauge | histogram
	}
	r.mu.Lock()
	rows := make([]row, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name := range r.counters {
		rows = append(rows, row{name, "counter"})
	}
	for name := range r.gauges {
		rows = append(rows, row{name, "gauge"})
	}
	for name := range r.hists {
		rows = append(rows, row{name, "histogram"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	var b strings.Builder
	lastBase := ""
	for _, rw := range rows {
		base := baseName(rw.name)
		if base != lastBase {
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, rw.kind)
			lastBase = base
		}
		switch rw.kind {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", rw.name, r.counters[rw.name].Value())
		case "gauge":
			fmt.Fprintf(&b, "%s %d\n", rw.name, r.gauges[rw.name].Value())
		case "histogram":
			writeHistProm(&b, rw.name, r.hists[rw.name])
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistProm emits one histogram: cumulative buckets up to the
// highest populated power-of-two bound, then +Inf, _sum and _count.
func writeHistProm(b *strings.Builder, name string, h *Histogram) {
	base, labels := splitName(name)
	top := 0
	for i := histBuckets - 1; i > 0; i-- {
		if h.buckets[i].Load() != 0 {
			top = i
			break
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.buckets[i].Load()
		// Bucket i holds values < 2^i, i.e. le = 2^i - 1.
		bound := uint64(math.MaxUint64)
		if i < 64 {
			bound = 1<<uint(i) - 1
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"%d\"} %d\n", base, labels, bound, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, h.Count())
	fmt.Fprintf(b, "%s_sum%s %d\n", base, bracket(labels), h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", base, bracket(labels), h.Count())
}

// baseName strips a {label} suffix: `x_total{box="b0"}` -> `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitName separates a full name into base and a label prefix ready to
// splice before `le=`: `h{box="b0"}` -> ("h", `box="b0",`); a bare name
// returns ("h", "").
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], name[i+1:len(name)-1] + ","
}

// bracket re-wraps a splitName label prefix for series with no le label.
func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

// Snapshot returns a plain map view of the registry — counters and
// gauges as numbers, histograms as {count, sum} maps — suitable for
// JSON dumps and programmatic reads.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = map[string]uint64{"count": h.Count(), "sum": h.Sum()}
	}
	return out
}
