package middlebox

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
	"repro/obs"
)

// testFlowTable builds a flowTable with live obs instruments, the way the
// boxes do, so the tests also cover the instrumented eviction path.
func testFlowTable(timeout time.Duration, capacity int, now func() sim.Time) *flowTable {
	reg := obs.NewRegistry()
	return newFlowTable(timeout, capacity, now,
		reg.Counter("middlebox_flow_evictions_total"),
		reg.Gauge("middlebox_flow_occupancy"))
}

// size reads the table's occupancy from its obs gauge — the value the
// boxes export as middlebox_flow_occupancy — and fails the test when the
// gauge disagrees with the flow map, whichever path last changed it.
func size(t *testing.T, tbl *flowTable) int {
	t.Helper()
	if got, want := tbl.occupancy.Value(), int64(len(tbl.flows)); got != want {
		t.Fatalf("occupancy gauge = %d, flow map holds %d", got, want)
	}
	return len(tbl.flows)
}

// ftClock is a hand-cranked clock for driving a flowTable without an engine.
type ftClock struct{ t sim.Time }

func (c *ftClock) now() sim.Time           { return c.t }
func (c *ftClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func ftAddr(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, last}) }

// synPkt builds the bare SYN opening flow i (distinct client address per i).
func synPkt(i int) *netpkt.Packet {
	return netpkt.NewTCP(ftAddr(byte(i)), ftAddr(200), &netpkt.TCPSegment{
		SrcPort: 40000, DstPort: 80, Seq: 1000, Flags: netpkt.SYN, Window: 65535,
	})
}

// ackPkt builds a client->server ACK on flow i's tuple.
func ackPkt(i int) *netpkt.Packet {
	return netpkt.NewTCP(ftAddr(byte(i)), ftAddr(200), &netpkt.TCPSegment{
		SrcPort: 40000, DstPort: 80, Seq: 1001, Ack: 2001, Flags: netpkt.ACK, Window: 65535,
	})
}

// synAckPkt builds the server->client SYN-ACK answering flow i.
func synAckPkt(i int) *netpkt.Packet {
	return netpkt.NewTCP(ftAddr(200), ftAddr(byte(i)), &netpkt.TCPSegment{
		SrcPort: 80, DstPort: 40000, Seq: 2000, Ack: 1001,
		Flags: netpkt.SYN | netpkt.ACK, Window: 65535,
	})
}

func TestFlowTableIdleExpiry(t *testing.T) {
	clk := &ftClock{}
	tbl := testFlowTable(150*time.Second, 0, clk.now)

	if st, _ := tbl.observe(synPkt(1)); st == nil || !st.synSeen {
		t.Fatalf("SYN did not create flow state")
	}
	if size(t, tbl) != 1 {
		t.Fatalf("size = %d, want 1", size(t, tbl))
	}

	// Within the timeout the flow is still tracked.
	clk.advance(149 * time.Second)
	if st, c2s := tbl.observe(ackPkt(1)); st == nil || !c2s {
		t.Fatalf("flow lost before idle timeout")
	}

	// Beyond it the entry is purged on access and the packet matches nothing.
	clk.advance(151 * time.Second)
	if st, _ := tbl.observe(ackPkt(1)); st != nil {
		t.Fatalf("expired flow still tracked")
	}
	if size(t, tbl) != 0 {
		t.Fatalf("size after expiry = %d, want 0", size(t, tbl))
	}
	if tbl.evictions.Value() != 0 {
		t.Fatalf("idle expiry counted as eviction")
	}

	// A fresh SYN restarts the flow from scratch.
	if st, _ := tbl.observe(synPkt(1)); st == nil || st.established {
		t.Fatalf("flow did not restart cleanly after expiry")
	}
}

func TestFlowTableReset(t *testing.T) {
	clk := &ftClock{}
	tbl := testFlowTable(150*time.Second, 2, clk.now)

	for i := 1; i <= 4; i++ {
		tbl.observe(synPkt(i))
		clk.advance(time.Second)
	}
	if size(t, tbl) != 2 || tbl.evictions.Value() != 2 {
		t.Fatalf("precondition: size=%d evictions=%d, want 2/2", size(t, tbl), tbl.evictions.Value())
	}

	tbl.reset()
	if size(t, tbl) != 0 {
		t.Fatalf("size after reset = %d, want 0", size(t, tbl))
	}
	if tbl.evictions.Value() != 0 {
		t.Fatalf("evictions survived reset")
	}

	// The table must be fully usable again: full handshake to established.
	tbl.observe(synPkt(1))
	tbl.observe(synAckPkt(1))
	st, c2s := tbl.observe(ackPkt(1))
	if st == nil || !c2s || !st.established {
		t.Fatalf("handshake after reset: st=%v c2s=%v", st, c2s)
	}
}

func TestFlowTableCapacityEviction(t *testing.T) {
	clk := &ftClock{}
	tbl := testFlowTable(150*time.Second, 3, clk.now)

	for i := 1; i <= 3; i++ {
		tbl.observe(synPkt(i))
		clk.advance(time.Second)
	}
	if size(t, tbl) != 3 || tbl.evictions.Value() != 0 {
		t.Fatalf("fill: size=%d evictions=%d", size(t, tbl), tbl.evictions.Value())
	}

	// Touch flow 1 so flow 2 becomes the coldest.
	tbl.observe(ackPkt(1))
	clk.advance(time.Second)

	// Admitting flow 4 at capacity evicts the LRU victim: flow 2.
	tbl.observe(synPkt(4))
	if size(t, tbl) != 3 {
		t.Fatalf("size after eviction = %d, want 3", size(t, tbl))
	}
	if tbl.evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", tbl.evictions.Value())
	}
	if st, _ := tbl.observe(ackPkt(2)); st != nil {
		t.Fatalf("LRU victim (flow 2) still tracked")
	}
	if st, _ := tbl.observe(ackPkt(1)); st == nil {
		t.Fatalf("recently touched flow 1 was evicted instead of the LRU victim")
	}

	// An established flow displaced under pressure loses its handshake
	// state: the box no longer recognizes the connection.
	tbl.reset()
	tbl.observe(synPkt(1))
	tbl.observe(synAckPkt(1))
	if st, _ := tbl.observe(ackPkt(1)); st == nil || !st.established {
		t.Fatalf("flow 1 did not establish")
	}
	clk.advance(time.Second)
	for i := 2; i <= 4; i++ {
		tbl.observe(synPkt(i))
		clk.advance(time.Second)
	}
	if tbl.evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", tbl.evictions.Value())
	}
	if st, _ := tbl.observe(ackPkt(1)); st != nil {
		t.Fatalf("evicted established flow still tracked")
	}
}

func TestFlowTableCapacityPrefersExpired(t *testing.T) {
	clk := &ftClock{}
	tbl := testFlowTable(100*time.Second, 2, clk.now)

	tbl.observe(synPkt(1))
	tbl.observe(synPkt(2))
	// Both entries idle out; admitting a third must recycle an expired one
	// silently rather than count a capacity eviction. The other expired
	// entry stays until lazily purged on access.
	clk.advance(101 * time.Second)
	tbl.observe(synPkt(3))
	if tbl.evictions.Value() != 0 {
		t.Fatalf("expired entries counted as capacity evictions: %d", tbl.evictions.Value())
	}
	if size(t, tbl) != 2 {
		t.Fatalf("size = %d, want 2 (one expired entry dropped for room)", size(t, tbl))
	}
	if st, _ := tbl.observe(ackPkt(2)); st != nil {
		t.Fatalf("expired flow 2 still live")
	}
	if size(t, tbl) != 1 {
		t.Fatalf("size after lazy purge = %d, want 1", size(t, tbl))
	}
}

func TestFlowTableTupleReuseRestartsFlow(t *testing.T) {
	clk := &ftClock{}
	tbl := testFlowTable(150*time.Second, 0, clk.now)

	tbl.observe(synPkt(1))
	tbl.observe(synAckPkt(1))
	if st, _ := tbl.observe(ackPkt(1)); st == nil || !st.established {
		t.Fatalf("flow did not establish")
	}

	// A client reusing the 4-tuple (fixed source port) starts the flow
	// over: the old established state must not leak into the new flow.
	st, c2s := tbl.observe(synPkt(1))
	if st == nil || !c2s {
		t.Fatalf("reused-tuple SYN not tracked")
	}
	if st.established || st.synAckSeen {
		t.Fatalf("stale handshake state leaked into restarted flow")
	}
	if size(t, tbl) != 1 {
		t.Fatalf("tuple reuse duplicated the flow entry: size=%d", size(t, tbl))
	}
}
