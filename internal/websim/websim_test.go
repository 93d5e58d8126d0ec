package websim

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/difflib"
	"repro/internal/httpwire"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func TestCatalogShape(t *testing.T) {
	c := NewCatalog(1200, 1000)
	if len(c.PBW) != 1200 {
		t.Fatalf("PBW count = %d", len(c.PBW))
	}
	if len(c.Alexa) != 1000 {
		t.Fatalf("Alexa count = %d", len(c.Alexa))
	}
	cats := map[Category]int{}
	kinds := map[Kind]int{}
	for i, s := range c.PBW {
		if s.PBWIndex != i {
			t.Fatalf("PBWIndex mismatch at %d", i)
		}
		cats[s.Category]++
		kinds[s.Kind]++
	}
	for _, cat := range Categories {
		if cats[cat] == 0 {
			t.Errorf("category %s empty", cat)
		}
	}
	// Kind mix should roughly match the calibrated fractions.
	if kinds[KindNormal] < 500 || kinds[KindCDN] < 150 || kinds[KindDead] < 50 || kinds[KindDynamic] < 80 || kinds[KindGone] < 15 {
		t.Errorf("kind mix off: %v", kinds)
	}
	for _, s := range c.Alexa {
		if s.Kind != KindNormal {
			t.Errorf("alexa site %s kind %v", s.Domain, s.Kind)
		}
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := NewCatalog(300, 100)
	b := NewCatalog(300, 100)
	for i := range a.PBW {
		if a.PBW[i].Domain != b.PBW[i].Domain || a.PBW[i].Kind != b.PBW[i].Kind {
			t.Fatalf("catalog not deterministic at %d", i)
		}
	}
}

func TestContentStableForNormalSites(t *testing.T) {
	c := NewCatalog(300, 0)
	var normal *Site
	for _, s := range c.PBW {
		if s.Kind == KindNormal {
			normal = s
			break
		}
	}
	b1 := RenderBody(PageSpec{Site: normal, Region: RegionIN, Fetch: 1})
	b2 := RenderBody(PageSpec{Site: normal, Region: RegionUS, Fetch: 5})
	if !bytes.Equal(b1, b2) {
		t.Error("normal site content should not vary by region or fetch")
	}
}

func TestCDNRegionalDiffs(t *testing.T) {
	c := NewCatalog(1200, 0)
	var plain, templ *Site
	for _, s := range c.PBW {
		if s.Kind == KindCDN {
			if s.RegionalTemplate && templ == nil {
				templ = s
			}
			if !s.RegionalTemplate && plain == nil {
				plain = s
			}
		}
	}
	if plain == nil || templ == nil {
		t.Fatal("need both CDN variants in catalog")
	}
	pin := string(RenderBody(PageSpec{Site: plain, Region: RegionIN, Fetch: 1}))
	pus := string(RenderBody(PageSpec{Site: plain, Region: RegionUS, Fetch: 1}))
	if d := 1 - difflib.RatioLines(pin, pus); d >= 0.3 {
		t.Errorf("plain CDN regional diff = %.2f, want < 0.3", d)
	}
	tin := string(RenderBody(PageSpec{Site: templ, Region: RegionIN, Fetch: 1}))
	tus := string(RenderBody(PageSpec{Site: templ, Region: RegionUS, Fetch: 1}))
	if d := 1 - difflib.RatioLines(tin, tus); d < 0.3 {
		t.Errorf("regional-template CDN diff = %.2f, want >= 0.3", d)
	}
}

func TestDynamicFeedChurn(t *testing.T) {
	c := NewCatalog(1200, 0)
	var small, big *Site
	for _, s := range c.PBW {
		if s.Kind == KindDynamic {
			if s.BigFeed && big == nil {
				big = s
			}
			if !s.BigFeed && small == nil {
				small = s
			}
		}
	}
	if small == nil || big == nil {
		t.Fatal("need both dynamic variants")
	}
	s1 := string(RenderBody(PageSpec{Site: small, Region: RegionIN, Fetch: 1}))
	s2 := string(RenderBody(PageSpec{Site: small, Region: RegionIN, Fetch: 2}))
	if d := 1 - difflib.RatioLines(s1, s2); d >= 0.3 {
		t.Errorf("small feed churn = %.2f, want < 0.3", d)
	}
	b1 := string(RenderBody(PageSpec{Site: big, Region: RegionIN, Fetch: 1}))
	b2 := string(RenderBody(PageSpec{Site: big, Region: RegionIN, Fetch: 2}))
	if d := 1 - difflib.RatioLines(b1, b2); d < 0.3 {
		t.Errorf("big feed churn = %.2f, want >= 0.3", d)
	}
}

func TestParkedPagesDifferByRegion(t *testing.T) {
	in := string(RenderParkedBody("dead.example.com", RegionIN))
	us := string(RenderParkedBody("dead.example.com", RegionUS))
	if d := 1 - difflib.RatioLines(in, us); d < 0.3 {
		t.Errorf("parked regional diff = %.2f, want >= 0.3", d)
	}
	if httpwire.Title([]byte(in)) == httpwire.Title([]byte(us)) {
		t.Error("parked titles should differ by region")
	}
}

// serverFixture builds client -- r0 -- r1 -- server with a websim Server.
type serverFixture struct {
	eng    *sim.Engine
	client *tcpsim.Stack
	sstack *tcpsim.Stack
	server *Server
	saddr  netip.Addr
}

func newServerFixture(t *testing.T, profile ServerProfile) *serverFixture {
	t.Helper()
	eng := sim.NewEngine(3)
	n := netsim.New(eng)
	r0 := n.AddRouter("r0", 1, netip.MustParseAddr("100.64.0.1"))
	r1 := n.AddRouter("r1", 1, netip.MustParseAddr("100.64.1.1"))
	n.Link(r0, r1, time.Millisecond)
	ch := n.AddHost(netip.MustParseAddr("10.0.0.2"), r0, time.Millisecond)
	sh := n.AddHost(netip.MustParseAddr("151.10.0.9"), r1, time.Millisecond)
	n.Build()
	cstack := tcpsim.NewStack(ch)
	sstack := tcpsim.NewStack(sh)
	srv := NewServer(sstack, RegionUS, profile)
	return &serverFixture{eng: eng, client: cstack, sstack: sstack, server: srv, saddr: sh.Addr()}
}

func fetch(t *testing.T, f *serverFixture, rawReq []byte) []*httpwire.Response {
	t.Helper()
	c := f.client.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	c.Send(rawReq)
	stream := c.WaitQuiet(2 * time.Second)
	var out []*httpwire.Response
	for len(stream) > 0 {
		resp, rest, err := httpwire.ParseResponse(stream)
		if err != nil {
			break
		}
		out = append(out, resp)
		stream = rest
	}
	c.Abort()
	return out
}

func TestServerServesHostedSite(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	cat := NewCatalog(50, 0)
	site := cat.PBW[0]
	f.server.Host(site)
	resps := fetch(t, f, httpwire.StandardGET(site.Domain, "/"))
	if len(resps) != 1 || resps[0].StatusCode != 200 {
		t.Fatalf("responses = %+v", resps)
	}
	if !bytes.Contains(resps[0].Body, []byte(site.Domain)) {
		t.Error("body does not mention the domain")
	}
	if srvr, ok := resps[0].HeaderValue("Server"); !ok || srvr != "nginx/1.14.2" {
		t.Errorf("Server header = %q", srvr)
	}
}

func TestServerUnknownHost404(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	resps := fetch(t, f, httpwire.StandardGET("blocked.example.in", "/"))
	if len(resps) != 1 || resps[0].StatusCode != 404 {
		t.Fatalf("responses = %+v", resps)
	}
}

func TestServerHostCaseInsensitive(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	cat := NewCatalog(50, 0)
	site := cat.PBW[0]
	f.server.Host(site)
	req := httpwire.NewGET("/").RawLine("HOst: "+site.Domain).Header("Connection", "keep-alive").Bytes()
	resps := fetch(t, f, req)
	if len(resps) != 1 || resps[0].StatusCode != 200 {
		t.Fatalf("case-mutated Host rejected: %+v", resps)
	}
}

// The covert-IM evasion payload must yield the real content plus a 400 for
// the trailing junk — two responses on one connection.
func TestServerMultiHostEvasionPayload(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	cat := NewCatalog(50, 0)
	site := cat.PBW[0]
	f.server.Host(site)
	payload := append(httpwire.NewGET("/").Header("Host", site.Domain).Bytes(),
		[]byte(" Host: allowed.example.com\r\n\r\n")...)
	resps := fetch(t, f, payload)
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(resps))
	}
	if resps[0].StatusCode != 200 || resps[1].StatusCode != 400 {
		t.Errorf("status codes = %d, %d; want 200, 400", resps[0].StatusCode, resps[1].StatusCode)
	}
}

func TestServerParking(t *testing.T) {
	f := newServerFixture(t, ProfileParkIntl)
	f.server.ServeParked()
	resps := fetch(t, f, httpwire.StandardGET("whatever-domain.net", "/"))
	if len(resps) != 1 || resps[0].StatusCode != 200 {
		t.Fatalf("parking response = %+v", resps)
	}
	if !strings.Contains(string(resps[0].Body), "whatever-domain.net") {
		t.Error("parked page should mention the domain")
	}
}

func TestServerConnectionClose(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	cat := NewCatalog(50, 0)
	f.server.Host(cat.PBW[0])
	c := f.client.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	c.Send(httpwire.StandardGET(cat.PBW[0].Domain, "/")) // has Connection: close
	f.eng.RunFor(2 * time.Second)
	if !c.PeerClosed() {
		t.Error("server should close after Connection: close")
	}
}

func TestServerPipelining(t *testing.T) {
	f := newServerFixture(t, ProfileStandard)
	cat := NewCatalog(50, 0)
	f.server.Host(cat.PBW[0])
	f.server.Host(cat.PBW[1])
	req := append(
		httpwire.NewGET("/").Header("Host", cat.PBW[0].Domain).Bytes(),
		httpwire.NewGET("/").Header("Host", cat.PBW[1].Domain).Bytes()...)
	resps := fetch(t, f, req)
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(resps))
	}
	if f.server.Requests != 2 {
		t.Errorf("server Requests = %d", f.server.Requests)
	}
}

// The cached 404 must be byte-identical to the one the server used to build
// per request, for every profile and region.
func TestServerNotFoundCached(t *testing.T) {
	for _, profile := range []ServerProfile{ProfileStandard, ProfileCDNEdge, ProfileParkIN, ProfileParkIntl} {
		f := newServerFixture(t, profile)
		for _, region := range []Region{RegionIN, RegionUS, RegionEU} {
			want := httpwire.NewResponse(404, "Not Found", []byte("<html><body>No such site here</body></html>"))
			profile.apply(want, region)
			for i := 0; i < 2; i++ { // miss, then hit
				if got := f.server.notFound(region); !bytes.Equal(got, want.Marshal()) {
					t.Errorf("profile %d region %v: cached 404\n%q\nwant\n%q", profile, region, got, want.Marshal())
				}
			}
		}
	}
}

// A keep-alive session as long as a path scan's leaves the server
// connection holding only its unparsed tail, not every request it served.
func TestServerKeepAliveConsumes(t *testing.T) {
	const requests = 2000
	f := newServerFixture(t, ProfileStandard)
	var sc *tcpsim.Conn
	f.sstack.Listen(80, func(c *tcpsim.Conn) { sc = c; f.server.accept(c) })
	c := f.client.Connect(f.saddr, 80)
	if err := c.WaitEstablished(time.Second); err != nil {
		t.Fatal(err)
	}
	var sent int
	for i := 0; i < requests; i++ {
		req := httpwire.NewGET("/").Header("Host", fmt.Sprintf("site%d.example.in", i)).Bytes()
		sent += len(req)
		c.Send(req)
	}
	f.eng.RunFor(5 * time.Second)

	got := 0
	for stream := c.Stream(); len(stream) > 0; got++ {
		n, err := httpwire.ResponseLen(stream)
		if err != nil {
			t.Fatalf("response %d: %v", got, err)
		}
		stream = stream[n:]
	}
	if got != requests || f.server.Requests != requests {
		t.Fatalf("client got %d responses, server served %d; want %d", got, f.server.Requests, requests)
	}
	if sc.Buffered() != 0 {
		t.Errorf("server left %d bytes unconsumed", sc.Buffered())
	}
	if len(sc.Stream()) >= 8<<10 {
		t.Errorf("server connection retains %d bytes of the %d received", len(sc.Stream()), sent)
	}
}
