package netpkt

import (
	"math/bits"

	"repro/obs"
)

// BufPool is a free list of byte buffers for one engine's packet path:
// wire images marshaled for ingress filters, ICMP quotes, and any other
// transient serialization come out of the pool and go back at an explicit
// release point instead of churning the garbage collector. Buffers are
// kept in power-of-two size classes from 64 bytes to 64 KiB (an IPv4
// packet never exceeds 64 KiB).
//
// Worlds are single-threaded — every callback runs inside the engine's
// Run loop on one goroutine — so the pool deliberately takes no locks.
// It must not be shared across engines running on different goroutines.
//
// Ownership is strict: a buffer obtained from Get is the caller's until it
// is handed to Put, after which the caller must not touch it again. Put
// accepts any buffer (pooled or not) and re-files it by capacity.
type BufPool struct {
	classes [11][][]byte // 1<<6 .. 1<<16
	// ObsGets counts every Get and ObsHits the Gets served from a free
	// list. They are the pool's only traffic counters: netsim.New wires
	// them to the owning world's registry, so they rewind with World.Reset.
	// Nil instruments (an unwired pool) are no-ops.
	ObsGets, ObsHits *obs.Counter
	// guard enforces the single-goroutine contract in race and
	// repolint_debug builds; it compiles to nothing otherwise.
	guard poolGuard
}

// Rebind releases the pool's goroutine binding (race and repolint_debug
// builds only; a no-op otherwise). The engine's world Reset calls it at
// the hand-off point where a parked world may legitimately move to
// another campaign worker; the next Get or Put re-pins the pool to the
// goroutine that makes it.
func (p *BufPool) Rebind() { p.guard.rebind() }

const (
	poolMinShift = 6  // 64 B
	poolMaxShift = 16 // 64 KiB
)

// classFor returns the size-class index whose buffers hold at least n
// bytes, or -1 when n exceeds the poolable maximum.
func classFor(n int) int {
	if n > 1<<poolMaxShift {
		return -1
	}
	if n <= 1<<poolMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - poolMinShift
}

// Get returns a zero-length buffer with capacity at least n, recycled when
// possible.
//
//repolint:hotpath
func (p *BufPool) Get(n int) []byte {
	p.guard.check()
	p.ObsGets.Inc()
	c := classFor(n)
	if c < 0 {
		//repolint:allow alloc -- over-maximum requests bypass the pool by design
		return make([]byte, 0, n)
	}
	if free := p.classes[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.ObsHits.Inc()
		return b[:0]
	}
	//repolint:allow alloc -- the pool refill is the designated allocation point
	return make([]byte, 0, 1<<(c+poolMinShift))
}

// Put releases a buffer back to the pool. Buffers smaller than the
// smallest class or larger than the largest are dropped for the collector.
//
//repolint:hotpath
func (p *BufPool) Put(b []byte) {
	p.guard.check()
	c := classFor(cap(b))
	if c < 0 || cap(b) < 1<<poolMinShift {
		return
	}
	// File under the class the capacity actually satisfies: a buffer that
	// grew past its class must not be handed out as the bigger size unless
	// it really holds it.
	if cap(b) < 1<<(c+poolMinShift) {
		c--
	}
	if len(p.classes[c]) >= 64 {
		return // bound the pool; the excess goes to the collector
	}
	p.classes[c] = append(p.classes[c], b[:0])
}
