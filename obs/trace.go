package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Span is one recorded trace event. Complete spans (End >= Start) export
// as Chrome "X" duration events; spans with End < 0 are instants ("i").
// Times are nanoseconds from the tracer's clock — engine virtual time
// for sim-side tracers, WallClock for process-side ones.
type Span struct {
	Name  string
	Cat   string
	TID   int
	Start int64
	End   int64
	Arg   string // optional argument key ("" = none)
	ArgV  int64  // argument value, exported under Arg
}

// Tracer records spans into an in-memory buffer. Start/Finish/Instant
// are safe for concurrent use and allocation-free once the buffer has
// grown to steady-state capacity (Reset keeps capacity, mirroring the
// engine arena). A nil Tracer is a no-op whose Start returns -1.
type Tracer struct {
	mu    sync.Mutex
	clock func() int64
	spans []Span
}

// NewTracer returns a tracer stamping spans with clock. A nil clock
// stamps zeros until SetClock is called — netbridge.WithTrace relies on
// this, injecting the engine's virtual clock before the pump starts.
func NewTracer(clock func() int64) *Tracer {
	return &Tracer{clock: clock}
}

// SetClock replaces the clock source. Call it before recording begins;
// swapping clocks mid-trace mixes timebases.
func (t *Tracer) SetClock(clock func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// now must be called with t.mu held.
func (t *Tracer) now() int64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Start opens a span and returns its id for Finish. A nil tracer
// returns -1 (which Finish ignores).
//
//repolint:hotpath
func (t *Tracer) Start(name, cat string, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Cat: cat, TID: tid, Start: t.now(), End: -1})
	t.mu.Unlock()
	return id
}

// Finish closes the span returned by Start. Out-of-range ids (including
// -1 from a nil Start) are ignored.
//
//repolint:hotpath
func (t *Tracer) Finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id >= 0 && id < len(t.spans) {
		t.spans[id].End = t.now()
	}
	t.mu.Unlock()
}

// Instant records a zero-duration event with one optional numeric
// argument (pass arg "" to omit it).
//
//repolint:hotpath
func (t *Tracer) Instant(name, cat string, tid int, arg string, argv int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := t.now()
	t.spans = append(t.spans, Span{Name: name, Cat: cat, TID: tid, Start: now, End: -1, Arg: arg, ArgV: argv})
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Reset drops all recorded spans but keeps the buffer capacity, so a
// warmed tracer records without allocating.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// WriteChromeTrace writes the spans as a Chrome trace_event JSON array
// (the format Perfetto and chrome://tracing open directly). Complete
// spans become "X" duration events, instants become "i"; timestamps are
// converted from clock nanoseconds to the format's microseconds with
// three decimal places, so nanosecond precision survives.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	for i, s := range t.Spans() {
		if i > 0 {
			bw.WriteString(",\n ")
		}
		fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"%s","pid":0,"tid":%d,"ts":%s`,
			strconv.Quote(s.Name), strconv.Quote(s.Cat), phase(s), s.TID, micros(s.Start))
		if s.End >= s.Start {
			fmt.Fprintf(bw, `,"dur":%s`, micros(s.End-s.Start))
		}
		if s.Arg != "" {
			fmt.Fprintf(bw, `,"args":{%s:%d}`, strconv.Quote(s.Arg), s.ArgV)
		} else if s.End < s.Start {
			// Unfinished span exported as instant: mark it so.
			bw.WriteString(`,"args":{"unfinished":1}`)
		}
		bw.WriteString("}")
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

func phase(s Span) string {
	if s.End >= s.Start {
		return "X"
	}
	return "i"
}

// micros renders ns as microseconds with fixed 3-decimal precision
// ("1234.567") without going through float64.
func micros(ns int64) string {
	neg := ns < 0
	if neg {
		ns = -ns
	}
	s := strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
	if neg {
		return "-" + s
	}
	return s
}
