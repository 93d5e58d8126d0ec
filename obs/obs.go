// Package obs is the repo's stdlib-only telemetry layer: zero-alloc
// counters, gauges and fixed-bucket histograms collected in registries,
// plus trace spans stamped by an injectable clock and exported as Chrome
// trace_event JSON (loadable in Perfetto / chrome://tracing).
//
// Two registry scopes exist by convention. A per-world registry is owned
// by the simulation engine (sim.Engine.Obs) and counts only virtual
// events, so its contents are deterministic: reset with the world and
// byte-identical across campaign workers and pooled replicas. A
// per-process registry (censor.WithTelemetry, monitor.WithMetrics)
// aggregates world deltas and wall-clock operational signals — those
// values legitimately differ run to run.
//
// Every instrument and the tracer are nil-safe: methods on a nil
// receiver are no-ops, so instrumented hot paths cost a single predicted
// branch when telemetry is stripped (sim.Engine.StripTelemetry) and a
// single padded atomic op when enabled. The package is covered by the
// repolint simdeterminism analyzer: nothing here may read the wall clock
// except WallClock, the one explicitly-waived escape hatch that the
// analyzer in turn bans from deterministic packages.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// WallClock returns the current wall-clock time in nanoseconds since the
// Unix epoch. It is the clock source for process-side tracers and the
// ONLY sanctioned wall-clock read in this package. Deterministic
// packages must never call it — sim-side spans and metric stamps use
// engine virtual time (sim.Engine.Now), and the simdeterminism analyzer
// reports any obs.WallClock use inside them.
func WallClock() int64 {
	//repolint:allow determinism -- the single process-side clock source; sim packages are banned from calling WallClock by the simdeterminism obs check
	return time.Now().UnixNano()
}

// pad fills a Counter/Gauge out to its own cache line so adjacent
// instruments created together do not false-share under concurrent
// workers.
type pad [64 - 8]byte

// Counter is a monotonically increasing event count. The zero value is
// usable; a nil Counter is a no-op.
type Counter struct {
	v    atomic.Uint64
	_    pad
	name string
}

// Inc adds one.
//
//repolint:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//repolint:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset rewinds the counter to zero.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Name returns the full instrument name, including any {label="value"}
// suffix built by Name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an instantaneous level (heap depth, flow-table occupancy).
// The zero value is usable; a nil Gauge is a no-op.
type Gauge struct {
	v    atomic.Int64
	_    pad
	name string
}

// Set stores v.
//
//repolint:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative).
//
//repolint:hotpath
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Reset rewinds the gauge to zero.
func (g *Gauge) Reset() {
	if g != nil {
		g.v.Store(0)
	}
}

// Name returns the full instrument name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// histBuckets is the fixed bucket count: observation v lands in bucket
// bits.Len64(v), i.e. bucket 0 holds zero, bucket k holds [2^(k-1), 2^k).
// 64 buckets cover every uint64, so Observe never branches on range.
const histBuckets = 65

// Histogram is a fixed power-of-two-bucket distribution, sized for
// nanosecond latencies but usable for any non-negative magnitude.
// Bucket boundaries are powers of two: observation v lands in bucket
// bits.Len64(v). The zero value is usable; a nil Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	name    string
}

// Observe records one observation. Negative values clamp to zero.
//
//repolint:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the raw (non-cumulative) count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Reset rewinds every bucket, the count and the sum to zero.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Name returns the full instrument name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// addFrom merges src into h (used by Registry.AddTo).
func (h *Histogram) addFrom(src *Histogram) {
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// Name builds a full instrument name from a base and alternating
// label-key/label-value pairs: Name("x_total", "box", "Airtel-box0")
// returns `x_total{box="Airtel-box0"}`. With no pairs it returns base
// unchanged. It allocates and belongs at instrument-creation time, never
// on a hot path.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	b := make([]byte, 0, len(base)+16*len(kv))
	b = append(b, base...)
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=', '"')
		b = append(b, kv[i+1]...)
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}
