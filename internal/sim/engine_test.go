package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now = %v, want 3ms", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 1 || fired[0] != Time(2*time.Millisecond) {
		t.Fatalf("nested event fired at %v, want [2ms]", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.Schedule(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.Run()
	if ran {
		t.Error("stopped timer still fired")
	}
}

func TestRunUntilSuccess(t *testing.T) {
	e := NewEngine(1)
	done := false
	e.Schedule(5*time.Millisecond, func() { done = true })
	if err := e.RunUntil(time.Second, func() bool { return done }); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Errorf("Now = %v, want 5ms", e.Now())
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Hour, func() {})
	err := e.RunUntil(time.Millisecond, func() bool { return false })
	if err != ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if e.Now() != Time(time.Millisecond) {
		t.Errorf("clock should advance to deadline, got %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("future event should remain queued")
	}
}

func TestRunUntilImmediateCondition(t *testing.T) {
	e := NewEngine(1)
	if err := e.RunUntil(0, func() bool { return true }); err != nil {
		t.Fatalf("RunUntil with already-true cond: %v", err)
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	var n int
	e.Schedule(time.Millisecond, func() { n++ })
	e.Schedule(10*time.Millisecond, func() { n++ })
	e.RunFor(5 * time.Millisecond)
	if n != 1 {
		t.Errorf("events run = %d, want 1", n)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Errorf("Now = %v, want 5ms", e.Now())
	}
	e.Run()
	if n != 2 {
		t.Errorf("remaining event lost")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var vals []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.Schedule(d, func() { vals = append(vals, int64(e.Now())) })
		}
		e.Run()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Errorf("negative delay should run at t=0, ran=%v now=%v", ran, e.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	e.Run()
	if n := e.Obs().Counter("sim_events_run_total").Value(); n != 7 {
		t.Errorf("sim_events_run_total = %d, want 7", n)
	}
}

// Property: events always execute in nondecreasing time order, regardless of
// the insertion order of delays.
func TestPropertyMonotonicExecution(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
