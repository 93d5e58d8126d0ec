package middlebox

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnswire"
	"repro/internal/httpwire"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/websim"
	"repro/obs"
)

func TestExtractHost(t *testing.T) {
	get := func(lines ...string) []byte {
		b := httpwire.NewGET("/")
		for _, l := range lines {
			b.RawLine(l)
		}
		return b.Bytes()
	}
	cases := []struct {
		name    string
		payload []byte
		last    bool
		want    string
		ok      bool
	}{
		{"standard", get("Host: blocked.com"), false, "blocked.com", true},
		{"upper-value", get("Host: BLOCKED.com"), false, "blocked.com", true},
		{"case-HOst", get("HOst: blocked.com"), false, "", false},
		{"case-HOST", get("HOST: blocked.com"), false, "", false},
		{"double-space", get("Host:  blocked.com"), false, "", false},
		{"tab-sep", get("Host:\tblocked.com"), false, "", false},
		{"trailing-space", get("Host: blocked.com "), false, "", false},
		{"trailing-tab", get("Host: blocked.com\t"), false, "", false},
		{"first-of-two", get("Host: blocked.com", "Host: allowed.com"), false, "blocked.com", true},
		{"last-of-two", get("Host: blocked.com", "Host: allowed.com"), true, "allowed.com", true},
		{"domain-in-path", []byte("GET /blocked.com HTTP/1.1\r\nHost: allowed.com\r\n\r\n"), false, "allowed.com", true},
		{"no-host", get("Accept: */*"), false, "", false},
		{"lowercase-method", []byte("get / HTTP/1.1\r\nHost: blocked.com\r\n\r\n"), false, "", false},
		{"not-http", []byte("\x16\x03\x01 tls bytes"), false, "", false},
		{"fragment-without-method", []byte("ost: blocked.com\r\n\r\n"), false, "", false},
		{
			"multi-host-after-end",
			append(get("Host: blocked.com"), []byte(" Host: allowed.com\r\n\r\n")...),
			true, "allowed.com", true,
		},
	}
	for _, c := range cases {
		got, ok := ExtractHost(c.payload, c.last)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: ExtractHost = (%q,%v), want (%q,%v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestPropertyExtractHostRobust(t *testing.T) {
	f := func(payload []byte, last bool) bool {
		got, ok := ExtractHost(payload, last)
		if !ok {
			return got == ""
		}
		return bytes.HasPrefix(payload, []byte("GET ")) && got != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// fixture: client -- r0 -- r1(box) -- r2 -- server, with a websim server
// hosting one censored and one clean domain.
type fixture struct {
	eng     *sim.Engine
	net     *netsim.Network
	chost   *netsim.Host
	cstack  *tcpsim.Stack
	server  *websim.Server
	sstack  *tcpsim.Stack
	saddr   netip.Addr
	routers []*netsim.Router
	blocked *websim.Site
	clean   *websim.Site
}

const clientPrefix = "10.5.0.0/16"

func newFixture(t testing.TB) *fixture {
	eng := sim.NewEngine(21)
	n := netsim.New(eng)
	rs := make([]*netsim.Router, 3)
	for i := range rs {
		rs[i] = n.AddRouter("r", 77, netip.AddrFrom4([4]byte{100, 70, byte(i), 1}))
		if i > 0 {
			n.Link(rs[i-1], rs[i], time.Millisecond)
		}
	}
	rs[1].Anonymized = true // middlebox routers traceroute as asterisks
	ch := n.AddHost(netip.MustParseAddr("10.5.0.2"), rs[0], time.Millisecond)
	sh := n.AddHost(netip.MustParseAddr("151.10.3.9"), rs[2], time.Millisecond)
	n.ClaimPrefix(netip.MustParsePrefix(clientPrefix), rs[0])
	n.Build()

	cat := websim.NewCatalog(20, 0)
	blocked, clean := cat.PBW[0], cat.PBW[1]
	sstack := tcpsim.NewStack(sh)
	srv := websim.NewServer(sstack, websim.RegionUS, websim.ProfileStandard)
	srv.Host(blocked)
	srv.Host(clean)

	return &fixture{
		eng: eng, net: n, chost: ch, cstack: tcpsim.NewStack(ch),
		server: srv, sstack: sstack, saddr: sh.Addr(), routers: rs,
		blocked: blocked, clean: clean,
	}
}

func (f *fixture) config(scope Scope, style NotifStyle, lastHost bool) Config {
	return Config{
		ID: "box-1", ASN: 77,
		Blocklist:     NewBlocklist([]string{f.blocked.Domain}),
		Scope:         scope,
		OwnPrefixes:   []netip.Prefix{netip.MustParsePrefix(clientPrefix)},
		LastHostMatch: lastHost,
		Style:         style,
	}
}

// count reads one of the fixture box's counters from the world registry.
func (f *fixture) count(base string) uint64 {
	return f.eng.Obs().Counter(obs.Name(base, "box", "box-1")).Value()
}

// doGET opens a connection and sends a standard GET for the domain,
// returning the conn after letting the exchange settle.
func (f *fixture) doGET(t testing.TB, domain string) *tcpsim.Conn {
	c := f.cstack.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		if t != nil {
			t.Fatal(err)
		}
		return c
	}
	f.eng.RunFor(20 * time.Millisecond)
	c.Send(httpwire.NewGET("/").Header("Host", domain).Bytes())
	f.eng.RunFor(2 * time.Second)
	return c
}

func TestWiretapInjectsNotificationAndRST(t *testing.T) {
	f := newFixture(t)
	wm := NewWiretap(f.net, f.config(ScopeSrcOnly, StyleAirtel, false), 0)
	f.routers[1].AttachTap(wm)
	f.chost.StartCapture()
	c := f.doGET(t, f.blocked.Domain)

	if n := f.count("middlebox_triggers_total"); n != 1 {
		t.Fatalf("triggers = %d", n)
	}
	if !c.PeerClosed() {
		t.Error("client should have accepted the forged FIN")
	}
	if !bytes.Contains(c.Stream(), []byte("airtel.in/dot")) {
		t.Errorf("stream missing notification: %q", c.Stream())
	}
	if _, reset := c.WasReset(); !reset && !c.Dead() {
		// The follow-up RST may land after the FIN already moved the conn
		// to CLOSE-WAIT; state must at least be dead or reset by now once
		// the real response arrives and the stack answers it.
		t.Logf("state = %v", c.State())
	}
	// The real response did arrive but must not be in the stream.
	if bytes.Contains(c.Stream(), []byte(f.blocked.Domain+" portal")) {
		t.Error("real content leaked into the stream")
	}
	// Injected packets carry Airtel's fixed IP-ID 242.
	found := false
	for _, rec := range f.chost.Captures() {
		if rec.Dir == netsim.DirIn && rec.Pkt.IP.ID == 242 {
			found = true
		}
	}
	if !found {
		t.Error("no injected packet with IP-ID 242 captured")
	}
}

func TestWiretapLosesRace(t *testing.T) {
	f := newFixture(t)
	wm := NewWiretap(f.net, f.config(ScopeSrcOnly, StyleAirtel, false), 1.0) // always slow
	f.routers[1].AttachTap(wm)
	c := f.doGET(t, f.blocked.Domain)
	if tr, lost := f.count("middlebox_triggers_total"), f.count("middlebox_lost_races_total"); tr != 1 || lost != 1 {
		t.Fatalf("triggers=%d lost races=%d", tr, lost)
	}
	if !bytes.Contains(c.Stream(), []byte("portal")) {
		t.Errorf("real content should have won the race: %q", c.Stream())
	}
	if bytes.Contains(c.Stream(), []byte("airtel.in/dot")) {
		t.Error("stale forged notification accepted")
	}
}

func TestWiretapRaceRatio(t *testing.T) {
	f := newFixture(t)
	wm := NewWiretap(f.net, f.config(ScopeSrcOnly, StyleAirtel, false), 0.3)
	f.routers[1].AttachTap(wm)
	rendered := 0
	const n = 100
	for i := 0; i < n; i++ {
		c := f.doGET(t, f.blocked.Domain)
		if bytes.Contains(c.Stream(), []byte("portal")) {
			rendered++
		}
		c.Abort()
		f.eng.RunFor(time.Second)
	}
	if rendered < 15 || rendered > 45 {
		t.Errorf("rendered %d/100, want ~30 (paper: ~3 in 10)", rendered)
	}
}

func TestWiretapIgnoresCleanAndOtherPorts(t *testing.T) {
	f := newFixture(t)
	wm := NewWiretap(f.net, f.config(ScopeSrcOnly, StyleAirtel, false), 0)
	f.routers[1].AttachTap(wm)
	c := f.doGET(t, f.clean.Domain)
	if f.count("middlebox_triggers_total") != 0 {
		t.Errorf("clean domain triggered")
	}
	if !bytes.Contains(c.Stream(), []byte("portal")) {
		t.Errorf("clean fetch failed: %q", c.Stream())
	}
	// Same censored Host on a non-80 port must be ignored.
	f.sstack.Listen(8080, func(sc *tcpsim.Conn) {})
	c2 := f.cstack.Connect(f.saddr, 8080)
	if err := c2.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	c2.Send(httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes())
	f.eng.RunFor(time.Second)
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("port-8080 traffic inspected")
	}
}

// Statefulness: without an observed full handshake the boxes stay silent
// (§4.2.1 caveat experiments).
func TestStatefulnessRequiresHandshake(t *testing.T) {
	f := newFixture(t)
	wm := NewWiretap(f.net, f.config(ScopeSrcOnly, StyleAirtel, false), 0)
	f.routers[1].AttachTap(wm)

	send := func(seg *netpkt.TCPSegment) {
		pkt := netpkt.NewTCP(f.chost.Addr(), f.saddr, seg)
		pkt.IP.TTL = 2 // past the box, short of the server
		f.chost.Send(pkt)
		f.eng.RunFor(200 * time.Millisecond)
	}
	get := httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes()
	// SYN then GET, no handshake completion.
	send(&netpkt.TCPSegment{SrcPort: 5000, DstPort: 80, Seq: 100, Flags: netpkt.SYN})
	send(&netpkt.TCPSegment{SrcPort: 5000, DstPort: 80, Seq: 101, Ack: 1, Flags: netpkt.PSH | netpkt.ACK, Payload: get})
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("SYN+GET without handshake triggered")
	}
	// Bare GET with no preceding handshake at all.
	send(&netpkt.TCPSegment{SrcPort: 5001, DstPort: 80, Seq: 500, Ack: 1, Flags: netpkt.PSH | netpkt.ACK, Payload: get})
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("handshake-less GET triggered")
	}
	// SYN+ACK first (wrong direction opener) then GET.
	send(&netpkt.TCPSegment{SrcPort: 5002, DstPort: 80, Seq: 9, Ack: 4, Flags: netpkt.SYN | netpkt.ACK})
	send(&netpkt.TCPSegment{SrcPort: 5002, DstPort: 80, Seq: 10, Ack: 5, Flags: netpkt.PSH | netpkt.ACK, Payload: get})
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("SYN+ACK-opened flow triggered")
	}
}

func TestStateTimeoutPurges(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(ScopeSrcOnly, StyleAirtel, false)
	cfg.StateTimeout = 150 * time.Second
	wm := NewWiretap(f.net, cfg, 0)
	f.routers[1].AttachTap(wm)
	c := f.cstack.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	f.eng.RunFor(4 * time.Minute) // exceed the 2-3 minute state window
	c.Send(httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes())
	f.eng.RunFor(2 * time.Second)
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("GET on purged flow state triggered censorship")
	}
	if !bytes.Contains(c.Stream(), []byte("portal")) {
		t.Errorf("content should arrive uncensored after state purge: %q", c.Stream())
	}
}

func TestStateRefreshKeepsFlowAlive(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(ScopeSrcOnly, StyleAirtel, false)
	cfg.StateTimeout = 150 * time.Second
	wm := NewWiretap(f.net, cfg, 0)
	f.routers[1].AttachTap(wm)
	c := f.cstack.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	// Keep the flow warm with harmless traffic every minute.
	for i := 0; i < 4; i++ {
		f.eng.RunFor(time.Minute)
		c.SendRaw([]byte("X"), tcpsim.RawOpts{Advance: true})
	}
	c.Send(httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes())
	f.eng.RunFor(2 * time.Second)
	if f.count("middlebox_triggers_total") != 1 {
		t.Errorf("refreshed flow should still be inspected; triggers = %d", f.count("middlebox_triggers_total"))
	}
}

func TestInterceptorOvert(t *testing.T) {
	f := newFixture(t)
	im := NewInterceptor(f.net, f.config(ScopeSrcOnly, StyleIdea, false), true)
	f.routers[1].AttachInline(im)
	before := f.server.Requests
	c := f.doGET(t, f.blocked.Domain)

	if n := f.count("middlebox_triggers_total"); n != 1 {
		t.Fatalf("triggers = %d", n)
	}
	if f.server.Requests != before {
		t.Error("GET reached the server through an interceptive box")
	}
	if !bytes.Contains(c.Stream(), []byte("competent Government Authority")) {
		t.Errorf("client missing notification: %q", c.Stream())
	}
	// The client's teardown must blackhole: Close then verify the FIN is
	// swallowed and the connection never finishes cleanly.
	c.Close()
	f.eng.RunFor(5 * time.Second)
	if c.State() == tcpsim.StateClosed {
		t.Error("teardown completed despite blackholing")
	}
	if f.count("middlebox_blackholed_total") == 0 {
		t.Error("no packets blackholed")
	}
}

func TestInterceptorServerSideRST(t *testing.T) {
	f := newFixture(t)
	im := NewInterceptor(f.net, f.config(ScopeSrcOnly, StyleIdea, false), true)
	f.routers[1].AttachInline(im)
	var sconn *tcpsim.Conn
	f.sstack.Listen(80, func(c *tcpsim.Conn) { sconn = c })
	f.doGET(t, f.blocked.Domain)
	if sconn == nil {
		t.Fatal("server never accepted the handshake")
	}
	seg, reset := sconn.WasReset()
	if !reset {
		t.Fatal("server connection not reset by middlebox")
	}
	if len(sconn.Stream()) != 0 {
		t.Error("server received request bytes")
	}
	_ = seg
}

func TestInterceptorCovert(t *testing.T) {
	f := newFixture(t)
	im := NewInterceptor(f.net, f.config(ScopeSrcOnly, StyleVodafone, false), false)
	f.routers[1].AttachInline(im)
	c := f.doGET(t, f.blocked.Domain)
	if n := f.count("middlebox_triggers_total"); n != 1 {
		t.Fatalf("triggers = %d", n)
	}
	if len(c.Stream()) != 0 {
		t.Errorf("covert box must not send content: %q", c.Stream())
	}
	if _, reset := c.WasReset(); !reset {
		t.Error("client not reset")
	}
}

func TestScopeSrcOnlyIgnoresInbound(t *testing.T) {
	f := newFixture(t)
	// Reverse roles: an outside host (the server side) probes toward the
	// client prefix. Attach a server on the client host.
	im := NewInterceptor(f.net, f.config(ScopeSrcOnly, StyleIdea, false), true)
	f.routers[1].AttachInline(im)
	f.cstack.Listen(80, func(c *tcpsim.Conn) {})
	probe := f.sstack.Connect(f.chost.Addr(), 80)
	if err := probe.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	probe.Send(httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes())
	f.eng.RunFor(2 * time.Second)
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("src-only box inspected outside-sourced probe")
	}

	// Same probe against a ScopeSrcOrDst box must trigger.
	f2 := newFixture(t)
	im2 := NewInterceptor(f2.net, f2.config(ScopeSrcOrDst, StyleIdea, false), true)
	f2.routers[1].AttachInline(im2)
	f2.cstack.Listen(80, func(c *tcpsim.Conn) {})
	probe2 := f2.sstack.Connect(f2.chost.Addr(), 80)
	if err := probe2.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	probe2.Send(httpwire.NewGET("/").Header("Host", f2.blocked.Domain).Bytes())
	f2.eng.RunFor(2 * time.Second)
	if f2.count("middlebox_triggers_total") != 1 {
		t.Error("src-or-dst box missed inbound probe")
	}
}

func TestCovertLastHostMatching(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(ScopeSrcOnly, StyleVodafone, true)
	im := NewInterceptor(f.net, cfg, false)
	f.routers[1].AttachInline(im)
	// The multiple-Host evasion: censored first, clean appended after the
	// end of the request.
	c := f.cstack.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	payload := append(httpwire.NewGET("/").Header("Host", f.blocked.Domain).Bytes(),
		[]byte(" Host: "+f.clean.Domain+"\r\n\r\n")...)
	c.Send(payload)
	f.eng.RunFor(2 * time.Second)
	if f.count("middlebox_triggers_total") != 0 {
		t.Error("covert box triggered despite clean last Host")
	}
	// The server still serves the real (first-Host) content plus a 400.
	if !bytes.Contains(c.Stream(), []byte("portal")) || !bytes.Contains(c.Stream(), []byte("400")) {
		t.Errorf("stream = %q", c.Stream())
	}
}

func TestDNSInjectorBeatsResolver(t *testing.T) {
	f := newFixture(t)
	inj := NewDNSInjector(f.net, f.config(ScopeSrcOnly, NotifStyle{ISP: "synthetic"}, false),
		netip.MustParseAddr("10.5.255.1"))
	f.routers[1].AttachTap(inj)
	// Fake resolver on the server host answering honestly.
	f.chost.SetUDPHandler(7000, nil)
	responses := []netip.Addr{}
	f.chost.SetUDPHandler(7000, func(p *netpkt.Packet) { responses = append(responses, p.IP.Src) })
	q, err := dnswire.NewQuery(42, f.blocked.Domain).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f.chost.Send(netpkt.NewUDP(f.chost.Addr(), f.saddr, &netpkt.UDPDatagram{SrcPort: 7000, DstPort: 53, Payload: q}))
	f.eng.RunFor(time.Second)
	if inj.Triggers != 1 {
		t.Fatalf("injector Triggers = %d", inj.Triggers)
	}
	if len(responses) == 0 {
		t.Fatal("no forged response delivered")
	}
}
