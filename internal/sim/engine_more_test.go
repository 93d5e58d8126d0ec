package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Regression: Stop on a timer whose event already executed must report
// false — the callback has run, there is nothing left to cancel. The old
// heap never marked executed events dead, so Stop lied.
func TestTimerStopAfterRun(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.Schedule(time.Millisecond, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if tm.Stop() {
		t.Error("Stop after the event executed should report false")
	}
}

// Stop from inside the callback itself reports false: the callback is no
// longer pending at that point.
func TestTimerStopDuringCallback(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	var stopped bool
	tm = e.Schedule(time.Millisecond, func() { stopped = tm.Stop() })
	e.Run()
	if stopped {
		t.Error("Stop from inside the running callback should report false")
	}
}

// A slot is recycled after execution; a stale Timer for its previous
// occupant must not cancel the new event.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine(1)
	first := e.Schedule(time.Millisecond, func() {})
	e.Run()
	ran := false
	e.Schedule(time.Millisecond, func() { ran = true }) // reuses the slot
	if first.Stop() {
		t.Error("stale timer stopped a recycled slot's new event")
	}
	e.Run()
	if !ran {
		t.Error("new event in recycled slot did not run")
	}
}

// Timers handed out before a Reset must not cancel events scheduled after
// it.
func TestTimerInvalidatedByReset(t *testing.T) {
	e := NewEngine(1)
	old := e.Schedule(time.Millisecond, func() {})
	e.Reset()
	ran := false
	e.Schedule(time.Millisecond, func() { ran = true })
	if old.Stop() {
		t.Error("pre-Reset timer cancelled a post-Reset event")
	}
	e.Run()
	if !ran {
		t.Error("post-Reset event did not run")
	}
}

func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop should report false")
	}
}

func TestScheduleCall(t *testing.T) {
	e := NewEngine(1)
	type pair struct{ x, y int }
	var got []pair
	fn := func(a, b any) { got = append(got, pair{*a.(*int), *b.(*int)}) }
	one, two, three := 1, 2, 3
	e.ScheduleCall(3*time.Millisecond, fn, &three, &one)
	e.ScheduleCall(time.Millisecond, fn, &one, &two)
	tm := e.ScheduleCall(2*time.Millisecond, fn, &two, &three)
	if !tm.Stop() {
		t.Fatal("Stop on pending ScheduleCall event should report true")
	}
	e.Run()
	want := []pair{{1, 2}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: an engine that ran an arbitrary prefix of work and was Reset
// is indistinguishable from a fresh NewEngine with the same seed — same
// event order, same clock readings, same Rand stream.
func TestPropertyResetIndistinguishableFromNew(t *testing.T) {
	script := func(e *Engine) []int64 {
		var out []int64
		for i := 0; i < 40; i++ {
			d := time.Duration(e.Rand().Intn(500)) * time.Microsecond
			e.Schedule(d, func() {
				out = append(out, int64(e.Now()), e.Rand().Int63n(1000))
			})
		}
		e.Run()
		return out
	}
	f := func(seed int64, preDelays []uint16, runFor uint16) bool {
		fresh := NewEngine(seed)
		want := script(fresh)

		reset := NewEngine(seed)
		for _, d := range preDelays {
			reset.Schedule(time.Duration(d)*time.Microsecond, func() {
				reset.Rand().Int63() // consume randomness pre-Reset
			})
		}
		reset.RunFor(time.Duration(runFor) * time.Microsecond) // partial run
		reset.Reset()
		got := script(reset)

		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Mass-cancelled timers must not grow the pending queue unboundedly: the
// heap compacts once dead entries outnumber live ones.
func TestMassCancelCompaction(t *testing.T) {
	e := NewEngine(1)
	const n = 100_000
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Microsecond, func() {}))
	}
	keep := 5
	for _, tm := range timers[keep:] {
		if !tm.Stop() {
			t.Fatal("Stop on a pending timer should report true")
		}
	}
	if got := e.Pending(); got != keep {
		t.Fatalf("Pending = %d, want %d", got, keep)
	}
	// Compaction keeps the heap proportional to the live events, not the
	// cancelled ones.
	if len(e.heap) > 2*keep+64 {
		t.Fatalf("heap holds %d entries for %d live events; compaction failed", len(e.heap), keep)
	}
	ran := 0
	e.Schedule(time.Hour, func() {})
	e.RunUntil(2*time.Hour, func() bool { ran = int(e.Obs().Counter("sim_events_run_total").Value()); return false })
	if ran != keep+1 {
		t.Fatalf("executed %d events, want %d survivors", ran, keep+1)
	}
}

// Steady-state scheduling allocates nothing: slots and heap capacity are
// recycled, and ScheduleCall carries its arguments without a closure.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func(a, b any) {}
	x := 0
	// Warm the arena.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(time.Millisecond, fn, &x, &x)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleCall(time.Millisecond, fn, &x, &x)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state ScheduleCall+Run allocates %.1f objects per run, want 0", allocs)
	}
}
