// Package sim provides a deterministic discrete-event simulation engine.
//
// Everything in the reproduction — packet delivery, middlebox injection
// races, DNS lookups, TCP timeouts — is scheduled on a single Engine. The
// engine is strictly single-threaded: callbacks run inside Run/RunUntil on
// the caller's goroutine, which makes every experiment bit-for-bit
// reproducible for a given seed.
//
// The scheduler is built for the packet hot path: events are stored by
// value in an arena (a slot-addressed slice that is recycled, never
// freed), the priority queue is a binary heap of arena indices, and
// cancellation hands out generation-counted Timer values instead of
// pinning per-event allocations. Steady state, Schedule and ScheduleCall
// allocate nothing: scheduling a packet hop costs a slot reuse and a heap
// sift. Cancelled events die lazily — they are skipped when popped, and
// when more than half the queue is dead the heap compacts in one pass —
// so mass-cancelled timers cannot grow Pending memory unboundedly.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/obs"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time time.Duration

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback, stored by value in the engine's arena.
// Exactly one of fn and fn2 is set; fn2 carries its two arguments inline
// so hot-path callers can schedule without building a closure.
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run FIFO
	fn   func()
	fn2  func(a, b any)
	a, b any
	// gen counts the slot's reuses; a Timer whose generation no longer
	// matches refers to an event that already ran, was cancelled, or was
	// dropped by Reset.
	gen  uint32
	dead bool
}

// Timer is a handle to a scheduled event; Stop cancels it. The zero Timer
// is valid and Stop on it reports false.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the callback had not yet run:
// false when the event already executed, was already stopped, or was
// dropped by an engine Reset.
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil || int(t.idx) >= len(e.arena) {
		return false
	}
	ev := &e.arena[t.idx]
	if ev.gen != t.gen || ev.dead {
		return false
	}
	ev.dead = true
	ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	e.deadCount++
	e.cCancelled.Inc()
	e.maybeCompact()
	return true
}

// Engine is a deterministic discrete-event scheduler with a virtual clock
// and a seeded random source. The zero value is not usable; construct with
// NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	seed int64
	rng  *rand.Rand

	arena []event // slot-addressed event storage, recycled via free
	free  []int32 // released arena slots
	heap  []int32 // binary heap of arena indices ordered by (at, seq)
	// deadCount is how many cancelled events still sit in heap awaiting
	// lazy removal.
	deadCount int

	// reg is the engine-owned telemetry registry — the per-world registry
	// every component built on this engine resolves instruments from. Its
	// contents count virtual events only, so they are as deterministic as
	// the event order itself: Reset rewinds them with the clock, and a
	// reset world's counters are byte-identical to a fresh build's.
	reg        *obs.Registry
	cScheduled *obs.Counter
	cRun       *obs.Counter
	cCancelled *obs.Counter
	cRecycled  *obs.Counter
	gHeapDepth *obs.Gauge
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
	e.reg = obs.NewRegistry()
	e.bindObs()
	return e
}

// bindObs resolves the engine's own instruments from its registry. With
// reg nil (StripTelemetry) every instrument comes back nil, and nil
// instruments are no-ops.
func (e *Engine) bindObs() {
	e.cScheduled = e.reg.Counter("sim_events_scheduled_total")
	e.cRun = e.reg.Counter("sim_events_run_total")
	e.cCancelled = e.reg.Counter("sim_events_cancelled_total")
	e.cRecycled = e.reg.Counter("sim_arena_recycles_total")
	e.gHeapDepth = e.reg.Gauge("sim_heap_depth")
}

// Obs returns the engine-owned per-world telemetry registry. Components
// built on the engine (network, middleboxes, traffic generators) resolve
// their instruments here at construction time, so World.Reset — which
// resets the engine — rewinds every world metric in one place. Returns
// nil after StripTelemetry.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// StripTelemetry discards the engine's registry and rebinds every
// instrument to nil, turning the telemetry layer into no-ops. Call it
// right after NewEngine, before wiring components, to measure or run
// without instrumentation; components built earlier keep counting into
// the discarded registry.
func (e *Engine) StripTelemetry() {
	e.reg = nil
	e.bindObs()
}

// Reset restores the engine to its just-constructed state: the clock back
// at zero, every pending event dropped, and the random source reseeded
// with the original seed. Components built on the engine keep their
// pointers to it, so a world can be rewound without rebuilding — the
// foundation of campaign world pooling. After Reset the engine is
// indistinguishable from NewEngine(seed), which is what makes a reset
// world produce byte-identical measurements to a freshly built one. The
// arena keeps its capacity; slot generations advance so Timers from
// before the reset can no longer cancel anything.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.deadCount = 0
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := range e.arena {
		ev := &e.arena[i]
		ev.gen++
		ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
		ev.dead = false
		e.free = append(e.free, int32(i))
	}
	e.rng = rand.New(rand.NewSource(e.seed))
	e.reg.Reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled (not yet executed, not
// cancelled) events.
func (e *Engine) Pending() int { return len(e.heap) - e.deadCount }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Timer can cancel the event.
//
//repolint:hotpath
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	idx := e.alloc(d)
	e.arena[idx].fn = fn
	return Timer{eng: e, idx: idx, gen: e.arena[idx].gen}
}

// ScheduleCall runs fn(a, b) after delay d of virtual time, storing the
// two arguments inline in the event so the caller needs no per-event
// closure. With a long-lived fn and pointer-shaped arguments a scheduled
// packet hop allocates nothing.
//
//repolint:hotpath
func (e *Engine) ScheduleCall(d Duration, fn func(a, b any), a, b any) Timer {
	idx := e.alloc(d)
	ev := &e.arena[idx]
	ev.fn2, ev.a, ev.b = fn, a, b
	return Timer{eng: e, idx: idx, gen: ev.gen}
}

// alloc reserves an arena slot for an event at now+d and pushes it on the
// heap. The slot's callback fields are zero; callers fill them.
//
//repolint:hotpath
func (e *Engine) alloc(d Duration) int32 {
	if d < 0 {
		d = 0
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at = e.now.Add(d)
	ev.seq = e.seq
	e.seq++
	e.heapPush(idx)
	e.cScheduled.Inc()
	e.gHeapDepth.Set(int64(len(e.heap)))
	return idx
}

// release recycles an arena slot, invalidating outstanding Timers for it.
//
//repolint:hotpath
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	ev.dead = false
	e.free = append(e.free, idx)
	e.cRecycled.Inc()
}

// less orders heap entries by (at, seq); seq is unique so the order is
// total and execution deterministic.
func (e *Engine) less(x, y int32) bool {
	a, b := &e.arena[x], &e.arena[y]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes and returns the smallest entry. The heap must be
// non-empty.
func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	e.siftDown(0)
	return top
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			small = r
		}
		if !e.less(h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// maybeCompact removes dead entries from the heap in one pass once they
// outnumber the live ones, bounding the memory a burst of cancellations
// can pin. Small heaps are left to lazy pop-time cleanup.
func (e *Engine) maybeCompact() {
	if e.deadCount*2 <= len(e.heap) || len(e.heap) < 64 {
		return
	}
	live := e.heap[:0]
	for _, idx := range e.heap {
		if e.arena[idx].dead {
			e.release(idx)
		} else {
			live = append(live, idx)
		}
	}
	e.heap = live
	e.deadCount = 0
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// peek returns the time of the earliest live event, pruning dead entries
// off the top of the heap as it goes.
func (e *Engine) peek() (Time, bool) {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		if !e.arena[idx].dead {
			return e.arena[idx].at, true
		}
		e.heapPop()
		e.deadCount--
		e.release(idx)
	}
	return 0, false
}

// NextAt returns the virtual time of the earliest pending event, or false
// when the queue is empty. Pump loops use it to size run slices without
// stepping blind through empty stretches of virtual time.
func (e *Engine) NextAt() (Time, bool) { return e.peek() }

// step executes the earliest pending event. It reports false when the queue
// is empty.
//
//repolint:hotpath
func (e *Engine) step() bool {
	for len(e.heap) > 0 {
		idx := e.heapPop()
		ev := &e.arena[idx]
		if ev.dead {
			e.deadCount--
			e.release(idx)
			continue
		}
		at := ev.at
		fn, fn2, a, b := ev.fn, ev.fn2, ev.a, ev.b
		// Release before running: the callback may schedule (growing the
		// arena) and a Stop on this event's Timer must now report false —
		// the callback is no longer pending.
		e.release(idx)
		e.now = at
		e.cRun.Inc()
		e.gHeapDepth.Set(int64(len(e.heap)))
		if fn != nil {
			fn()
		} else {
			fn2(a, b)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.step() {
	}
}

// ErrDeadline is returned by RunUntil when the condition did not become true
// before the virtual deadline or queue exhaustion.
var ErrDeadline = fmt.Errorf("sim: deadline exceeded")

// RunUntil executes events until cond() reports true, returning nil, or
// until the virtual clock passes the deadline (now+timeout) or the queue
// drains, returning ErrDeadline. cond is checked after every event.
func (e *Engine) RunUntil(timeout Duration, cond func() bool) error {
	deadline := e.now.Add(timeout)
	if cond() {
		return nil
	}
	for {
		at, ok := e.peek()
		if !ok || at > deadline {
			break
		}
		if !e.step() {
			break
		}
		if cond() {
			return nil
		}
	}
	// Advance the clock to the deadline so successive timeouts accumulate
	// the way wall-clock retries would.
	if e.now < deadline {
		e.now = deadline
	}
	return ErrDeadline
}

// RunFor executes events for d of virtual time and then returns, leaving
// later events queued. The clock always ends at now+d.
func (e *Engine) RunFor(d Duration) {
	deadline := e.now.Add(d)
	for {
		at, ok := e.peek()
		if !ok || at > deadline {
			break
		}
		if !e.step() {
			break
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}
