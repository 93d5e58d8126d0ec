//go:build race || repolint_debug

package netpkt

import (
	"testing"

	"repro/obs"
)

// TestPoolGuardPanicsOnCrossGoroutineUse proves the guard fires: a pool
// bound by one goroutine's Get panics when touched from another without a
// Rebind in between.
func TestPoolGuardPanicsOnCrossGoroutineUse(t *testing.T) {
	p := &BufPool{}
	p.Put(p.Get(64)) // binds the pool to the test goroutine

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		p.Get(64)
	}()
	if v := <-panicked; v == nil {
		t.Fatal("cross-goroutine Get did not panic with the pool guard compiled in")
	}
}

// TestPoolGuardRebindAllowsHandOff proves the legal ownership transfer:
// Rebind (what Network.ResetRuntime calls at the world hand-off point)
// releases the binding so the next goroutine can adopt the pool.
func TestPoolGuardRebindAllowsHandOff(t *testing.T) {
	p := &BufPool{}
	p.Put(p.Get(64))
	p.Rebind()

	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		p.Put(p.Get(64))
	}()
	if v := <-res; v != nil {
		t.Fatalf("Get after Rebind panicked: %v", v)
	}
}

// TestPoolGuardSameGoroutineQuiet pins the non-panic path: repeated use
// from the owning goroutine never trips the guard.
func TestPoolGuardSameGoroutineQuiet(t *testing.T) {
	reg := obs.NewRegistry()
	p := countedPool(reg)
	for i := 0; i < 100; i++ {
		p.Put(p.Get(256))
	}
	if g := reg.Counter("netsim_pool_gets_total").Value(); g != 100 {
		t.Fatalf("netsim_pool_gets_total = %d, want 100", g)
	}
}
