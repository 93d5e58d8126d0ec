package middlebox

import (
	"net/netip"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
	"repro/obs"
)

// Scope selects which traffic a middlebox inspects, the knob behind the
// paper's within-ISP vs outside-ISP coverage gap (Table 2) and the Jio
// anomaly (source filtering makes Jio's boxes invisible from outside).
type Scope int

// Scopes.
const (
	// ScopeSrcOnly inspects packets whose source is inside the owning
	// ISP's prefixes — subscriber egress traffic only. Boxes with this
	// scope are invisible to probes entering from outside (all of Jio's).
	ScopeSrcOnly Scope = iota
	// ScopeSrcOrDst additionally inspects packets addressed to the ISP's
	// own prefixes, so outside probes towards internal hosts see them.
	ScopeSrcOrDst
	// ScopeAll inspects everything crossing the box — used on dedicated
	// customer-peering links, where transiting customer traffic is the
	// point (the collateral-damage mechanism of Table 3).
	ScopeAll
)

// NotifStyle describes the ISP-specific censorship response, which is what
// lets the paper attribute anonymized middleboxes to ISPs (§6.1).
type NotifStyle struct {
	ISP string
	// BodyHTML is the notification body; empty plus Covert means bare RST.
	BodyHTML string
	// MimicHeaders makes the forged response carry the same header *names*
	// as a typical origin server — the property that blinds OONI (§6.2).
	MimicHeaders bool
	// IPID pins the IP identification field of every injected packet
	// (Airtel's boxes always use 242 — the paper's firewalling evasion
	// keys on it).
	IPID uint16
	// Covert styles send only a RST, no notification page (Vodafone).
	Covert bool
}

// Standard notification styles observed in the paper.
var (
	StyleAirtel = NotifStyle{
		ISP: "Airtel",
		BodyHTML: `<html><body><iframe src="http://www.airtel.in/dot/"></iframe>` +
			`The website has been blocked as per instructions of DoT</body></html>`,
		MimicHeaders: true,
		IPID:         242,
	}
	StyleJio = NotifStyle{
		ISP: "Jio",
		BodyHTML: `<html><body><script>window.location="http://49.44.18.2/alert.html"` +
			`</script>Access to this site has been restricted</body></html>`,
		MimicHeaders: true,
	}
	StyleIdea = NotifStyle{
		ISP: "Idea",
		BodyHTML: `<html><body>This URL has been blocked under instructions of a ` +
			`competent Government Authority</body></html>`,
	}
	StyleVodafone = NotifStyle{ISP: "Vodafone", Covert: true}
	StyleTATA     = NotifStyle{
		ISP: "TATA",
		BodyHTML: `<html><body>Error 403: access denied as per DoT directive ` +
			`(TATA Communications)</body></html>`,
	}
)

// Config is shared by both middlebox kinds.
type Config struct {
	ID        string
	ASN       int // owning ISP
	Blocklist Blocklist
	Scope     Scope
	// OwnPrefixes are the owning ISP's advertised prefixes, consulted by
	// Scope checks.
	OwnPrefixes []netip.Prefix
	// LastHostMatch selects the covert-IM "last Host header wins" parsing.
	LastHostMatch bool
	// StateTimeout purges idle flow state; the paper measured 2-3 minutes.
	StateTimeout time.Duration
	// FlowCapacity bounds the flow table; at capacity the coldest live
	// flow is evicted (LRU) to admit a new one, after which the box no
	// longer recognizes the displaced connection as established — the
	// load-dependent censorship miss background traffic makes observable.
	// Zero means defaultFlowCapacity.
	FlowCapacity int
	Style        NotifStyle
}

func (c *Config) timeout() time.Duration {
	if c.StateTimeout == 0 {
		return 150 * time.Second
	}
	return c.StateTimeout
}

// defaultFlowCapacity is generous enough that only population-scale load
// ever reaches it; idle-world campaigns never see a capacity eviction.
const defaultFlowCapacity = 65536

func (c *Config) flowCapacity() int {
	if c.FlowCapacity <= 0 {
		return defaultFlowCapacity
	}
	return c.FlowCapacity
}

func (c *Config) inOwn(a netip.Addr) bool {
	for _, p := range c.OwnPrefixes {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// inScope applies the box's traffic scope to a client->server packet.
func (c *Config) inScope(src, dst netip.Addr) bool {
	switch c.Scope {
	case ScopeAll:
		return true
	case ScopeSrcOrDst:
		return c.inOwn(src) || c.inOwn(dst)
	default:
		return c.inOwn(src)
	}
}

// flowState is the per-connection record a stateful middlebox keeps.
// Records live in flowTable's slot arena; key and prev/next are the
// table's bookkeeping (map removal on eviction, intrusive LRU list).
type flowState struct {
	key        netpkt.FlowKey
	prev, next int32
	synSeen    bool
	synAckSeen bool
	// established is set only after the full three-way handshake was
	// observed — the property the paper's SYN-only/no-handshake probes
	// verify (§4.2.1 caveat).
	established bool
	clientISS   uint32
	serverISS   uint32
	// clientNxt / serverNxt track each side's next sequence number as
	// observed, so forged packets carry numbers the client stack accepts.
	clientNxt uint32
	serverNxt uint32
	lastSeen  sim.Time
	// blackholed flows (interceptive boxes, post-trigger) are dropped.
	blackholed bool
}

// flowTable tracks flows with an idle timeout and a hard capacity bound.
// Records live by value in a slot arena reached through the key map, and
// every slot sits on an intrusive LRU list (head = coldest). Slots are
// recycled through a free list, so once the arena has grown to the working
// set the table allocates nothing per flow — the property the background-
// traffic zero-alloc gate measures through it.
type flowTable struct {
	flows      map[netpkt.FlowKey]int32
	entries    []flowState
	free       []int32
	head, tail int32
	timeout    time.Duration
	capacity   int
	now        func() sim.Time
	// evictions and occupancy are obs instruments from the owning world's
	// registry, exported per box as middlebox_flow_evictions_total and
	// middlebox_flow_occupancy. Both count virtual events only, so their
	// values are deterministic; nil instruments are no-ops. Every insert
	// and removal path sets occupancy to len(flows).
	evictions *obs.Counter
	occupancy *obs.Gauge
}

func newFlowTable(timeout time.Duration, capacity int, now func() sim.Time,
	evictions *obs.Counter, occupancy *obs.Gauge) *flowTable {
	if capacity <= 0 {
		capacity = defaultFlowCapacity
	}
	return &flowTable{
		flows:     make(map[netpkt.FlowKey]int32),
		head:      -1,
		tail:      -1,
		timeout:   timeout,
		capacity:  capacity,
		now:       now,
		evictions: evictions,
		occupancy: occupancy,
	}
}

// reset drops all flow state in place, keeping map and arena capacity.
// Rewinding the instruments here is idempotent with the engine-registry
// reset World.Reset performs, and keeps a standalone box Reset coherent.
func (t *flowTable) reset() {
	clear(t.flows)
	t.entries = t.entries[:0]
	t.free = t.free[:0]
	t.head, t.tail = -1, -1
	t.evictions.Reset()
	t.occupancy.Set(0)
}

// unlink removes a slot from the LRU list.
//
//repolint:hotpath
func (t *flowTable) unlink(idx int32) {
	e := &t.entries[idx]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushTail appends a slot at the hot end of the LRU list.
//
//repolint:hotpath
func (t *flowTable) pushTail(idx int32) {
	e := &t.entries[idx]
	e.prev, e.next = t.tail, -1
	if t.tail >= 0 {
		t.entries[t.tail].next = idx
	} else {
		t.head = idx
	}
	t.tail = idx
}

// touch stamps a slot's activity and moves it to the hot end.
//
//repolint:hotpath
func (t *flowTable) touch(idx int32) {
	t.entries[idx].lastSeen = t.now()
	if t.tail == idx {
		return
	}
	t.unlink(idx)
	t.pushTail(idx)
}

// drop removes a slot from the table entirely and recycles it.
//
//repolint:hotpath
func (t *flowTable) drop(idx int32) {
	t.unlink(idx)
	delete(t.flows, t.entries[idx].key)
	t.free = append(t.free, idx)
	t.occupancy.Set(int64(len(t.flows)))
}

// get returns the slot for the client-first key, purging it when expired;
// -1 when the key is untracked.
//
//repolint:hotpath
func (t *flowTable) get(key netpkt.FlowKey) int32 {
	idx, ok := t.flows[key]
	if !ok {
		return -1
	}
	if t.now().Sub(t.entries[idx].lastSeen) > t.timeout {
		t.drop(idx)
		return -1
	}
	return idx
}

// create claims a slot for key. At capacity it first drops idle-expired
// flows from the cold end (plain expiry), then displaces the coldest live
// flow — the counted eviction that loses an established connection's
// handshake state under population load.
//
//repolint:hotpath
func (t *flowTable) create(key netpkt.FlowKey) int32 {
	if len(t.flows) >= t.capacity {
		now := t.now()
		for t.head >= 0 && len(t.flows) >= t.capacity {
			if now.Sub(t.entries[t.head].lastSeen) <= t.timeout {
				break
			}
			t.drop(t.head)
		}
		for t.head >= 0 && len(t.flows) >= t.capacity {
			t.drop(t.head)
			t.evictions.Inc()
		}
	}
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.entries = append(t.entries, flowState{})
		idx = int32(len(t.entries) - 1)
	}
	t.entries[idx] = flowState{key: key, prev: -1, next: -1, lastSeen: t.now()}
	t.flows[key] = idx
	t.pushTail(idx)
	t.occupancy.Set(int64(len(t.flows)))
	return idx
}

// observe updates flow state from one packet and returns the state (nil if
// the packet belongs to no tracked flow and starts none). clientToServer
// reports whether pkt travels client->server. The returned pointer is into
// the slot arena and is valid only until the next table mutation.
//
//repolint:hotpath
func (t *flowTable) observe(pkt *netpkt.Packet) (st *flowState, clientToServer bool) {
	tcp := pkt.TCP
	key := pkt.Flow()
	// New flow: a bare SYN defines the client side. A live entry under the
	// same key is a reused 4-tuple (population load cycles fixed source
	// ports); the box starts that flow over.
	if tcp.Flags.Has(netpkt.SYN) && !tcp.Flags.Has(netpkt.ACK) {
		idx := t.get(key)
		if idx >= 0 {
			e := &t.entries[idx]
			*e = flowState{key: key, prev: e.prev, next: e.next}
			t.touch(idx)
		} else {
			idx = t.create(key)
		}
		st = &t.entries[idx]
		st.synSeen = true
		st.clientISS = tcp.Seq
		st.clientNxt = tcp.Seq + 1
		return st, true
	}
	if idx := t.get(key); idx >= 0 {
		t.touch(idx)
		st = &t.entries[idx]
		// client -> server direction
		if tcp.Flags.Has(netpkt.ACK) && st.synAckSeen && !st.established && tcp.Ack == st.serverISS+1 {
			st.established = true
		}
		if adv := tcp.Seq + tcp.SeqSpan(); seqAfter(adv, st.clientNxt) {
			st.clientNxt = adv
		}
		return st, true
	}
	rev := key.Reverse()
	if idx := t.get(rev); idx >= 0 {
		t.touch(idx)
		st = &t.entries[idx]
		// server -> client direction
		if tcp.Flags.Has(netpkt.SYN|netpkt.ACK) && !st.synAckSeen {
			st.synAckSeen = true
			st.serverISS = tcp.Seq
			st.serverNxt = tcp.Seq + 1
		}
		if adv := tcp.Seq + tcp.SeqSpan(); st.synAckSeen && seqAfter(adv, st.serverNxt) {
			st.serverNxt = adv
		}
		return st, false
	}
	return nil, false
}

// seqAfter reports a > b in 32-bit sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }
