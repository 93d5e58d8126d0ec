package netpkt

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/obs"
)

// countedPool returns a pool whose traffic counters live in reg.
func countedPool(reg *obs.Registry) *BufPool {
	return &BufPool{ObsGets: reg.Counter("netsim_pool_gets_total"), ObsHits: reg.Counter("netsim_pool_hits_total")}
}

func TestBufPoolRecycles(t *testing.T) {
	reg := obs.NewRegistry()
	p := countedPool(reg)
	b := p.Get(100)
	if cap(b) < 100 || len(b) != 0 {
		t.Fatalf("Get(100) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, make([]byte, 100)...)
	p.Put(b)
	c := p.Get(100)
	if cap(c) < 100 {
		t.Fatalf("recycled cap %d < 100", cap(c))
	}
	if h := reg.Counter("netsim_pool_hits_total").Value(); h != 1 {
		t.Fatalf("netsim_pool_hits_total = %d, want 1", h)
	}
	if g := reg.Counter("netsim_pool_gets_total").Value(); g != 2 {
		t.Fatalf("netsim_pool_gets_total = %d, want 2", g)
	}
}

func TestBufPoolClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 16, poolMaxShift - poolMinShift}, {1<<16 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestBufPoolOversized(t *testing.T) {
	var p BufPool
	b := p.Get(1 << 20)
	if cap(b) < 1<<20 {
		t.Fatalf("oversized Get cap %d", cap(b))
	}
	p.Put(b) // dropped, not filed
	for _, class := range p.classes {
		if len(class) != 0 {
			t.Fatal("oversized buffer was pooled")
		}
	}
}

// AppendMarshal into a recycled buffer must produce exactly the bytes
// Marshal produces.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	pkts := []*Packet{
		NewTCP(src, dst, &TCPSegment{SrcPort: 1234, DstPort: 80, Seq: 9, Ack: 4,
			Flags: PSH | ACK, Window: 65535, Payload: []byte("GET / HTTP/1.1\r\n\r\n")}),
		NewUDP(src, dst, &UDPDatagram{SrcPort: 9999, DstPort: 53, Payload: []byte("query")}),
		NewTimeExceeded(src, NewUDP(dst, src, &UDPDatagram{SrcPort: 1, DstPort: 2, Payload: []byte("x")})),
	}
	var p BufPool
	for _, pkt := range pkts {
		want, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		buf := p.Get(len(want))
		got, err := pkt.AppendMarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendMarshal differs from Marshal for %s", pkt.Summary())
		}
		if parsed, err := Parse(got); err != nil {
			t.Errorf("Parse(AppendMarshal(%s)): %v", pkt.Summary(), err)
		} else if parsed.IP.Protocol != pkt.IP.Protocol {
			t.Errorf("round-trip protocol mismatch")
		}
		p.Put(got)
	}
}

// Steady-state marshal through the pool allocates nothing.
func TestAppendMarshalPooledZeroAlloc(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	pkt := NewTCP(src, dst, &TCPSegment{SrcPort: 1234, DstPort: 80, Seq: 9,
		Flags: PSH | ACK, Window: 65535, Payload: []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")})
	var p BufPool
	p.Put(p.Get(256)) // warm the class
	allocs := testing.AllocsPerRun(200, func() {
		buf := p.Get(256)
		out, err := pkt.AppendMarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(out)
	})
	if allocs != 0 {
		t.Errorf("pooled AppendMarshal allocates %.1f objects per run, want 0", allocs)
	}
}

// AppendQuote's TCP fast path must be byte-identical to a truncated full
// marshal, and WireLen must match the marshaled size.
func TestAppendQuoteMatchesTruncatedMarshal(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	pkts := []*Packet{
		NewTCP(src, dst, &TCPSegment{SrcPort: 1234, DstPort: 80, Seq: 0xdeadbeef, Ack: 4,
			Flags: PSH | ACK, Window: 4096, Payload: bytes.Repeat([]byte("x"), 700)}),
		NewTCP(src, dst, &TCPSegment{SrcPort: 7, DstPort: 80, Flags: SYN, Window: 65535}),
		NewUDP(src, dst, &UDPDatagram{SrcPort: 9999, DstPort: 53, Payload: []byte("query bytes")}),
	}
	pkts[0].IP.ID = 242
	pkts[0].IP.DF = true
	for _, pkt := range pkts {
		full, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != pkt.WireLen() {
			t.Errorf("WireLen = %d, marshaled %d bytes", pkt.WireLen(), len(full))
		}
		want := full
		if len(want) > icmpQuoteLen {
			want = want[:icmpQuoteLen]
		}
		got, err := pkt.AppendQuote(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendQuote differs from truncated Marshal for %s:\n got %x\nwant %x",
				pkt.Summary(), got, want)
		}
	}
}
