package websim

import (
	"fmt"
	"net/netip"

	"repro/internal/httpwire"
	"repro/internal/tcpsim"
)

// ServerProfile selects which response header names a server emits. OONI's
// web_connectivity compares header *names* between control and experiment,
// so profile differences across regions are a false-positive source and
// profile mimicry by censors a false-negative source.
type ServerProfile int

// Profiles.
const (
	ProfileStandard ServerProfile = iota // Content-Length, Content-Type, Server
	ProfileCDNEdge                       // + Via, X-Cache
	ProfileParkIN                        // parking software used by the IN edge
	ProfileParkIntl                      // different parking software elsewhere
)

// apply attaches profile headers (beyond Content-Length, which NewResponse
// sets) to a response.
func (p ServerProfile) apply(r *httpwire.Response, region Region) {
	r.AddHeader("Content-Type", "text/html")
	switch p {
	case ProfileStandard:
		r.AddHeader("Server", "nginx/1.14.2")
	case ProfileCDNEdge:
		r.AddHeader("Server", "cdn-edge/3.1")
		r.AddHeader("Via", fmt.Sprintf("1.1 edge-%s", region))
		r.AddHeader("X-Cache", "HIT")
	case ProfileParkIN:
		r.AddHeader("Server", "parkd/1.0")
		r.AddHeader("X-Parked-By", "in-hosting")
	case ProfileParkIntl:
		r.AddHeader("Server", "ParkingCo-Web")
		r.AddHeader("X-Listing", "premium")
		r.AddHeader("X-Broker", "auto")
	}
}

// Server implements the origin-server behaviour for one web host. A host
// may serve a single dedicated site, a whole CDN edge, or a parking
// service.
type Server struct {
	stack   *tcpsim.Stack
	region  Region
	profile ServerProfile

	// RegionOf, when set, selects the served region from the client's
	// source address — the behaviour of an anycast CDN edge, whose single
	// IP serves location-dependent content (a paper-documented OONI
	// false-positive source that DNS comparison cannot see).
	RegionOf func(netip.Addr) Region

	// sites the host serves by domain; nil Site with parking=true means
	// "serve a parked page for any domain".
	sites   map[string]*Site
	parking bool

	fetches map[string]int
	// respCache holds fully marshaled response bytes per (host, region,
	// fetch) — page content is a pure function of those three, so the
	// body rendering and header formatting run once per distinct page, not
	// once per request. Entries for non-dynamic sites use fetch 0 (their
	// content ignores the counter). It also holds the 404 this server
	// answers for domains it does not host, one per region under
	// notFoundFetch, since the profile is fixed at construction. The cache
	// is correctness-neutral (a miss regenerates identical bytes) and
	// therefore survives Reset.
	respCache map[respKey][]byte
	// Requests counts successfully served requests (tests/metrics).
	Requests int
}

// respKey identifies one cached response.
type respKey struct {
	host   string
	region Region
	fetch  int
}

// notFoundFetch keys the cached 404. Fetch counters start at 1 and
// non-dynamic pages use 0, so no hosted page shares the key.
const notFoundFetch = -1

// respCacheMax bounds the cache; on overflow it is dropped wholesale
// (regeneration is deterministic, so eviction never affects output).
const respCacheMax = 4096

// The two fixed 400 answers, marshaled once.
var (
	badRequest  = httpwire.NewResponse(400, "Bad Request", []byte("<html><body>Bad Request</body></html>")).Marshal()
	missingHost = httpwire.NewResponse(400, "Bad Request", []byte("<html><body>Missing Host</body></html>")).Marshal()
)

func (s *Server) cachedResponse(key respKey) ([]byte, bool) {
	b, ok := s.respCache[key]
	return b, ok
}

func (s *Server) storeResponse(key respKey, b []byte) {
	if s.respCache == nil || len(s.respCache) >= respCacheMax {
		s.respCache = make(map[respKey][]byte)
	}
	s.respCache[key] = b
}

// notFound returns the 404 this server sends, in region, for a domain it
// does not host — the paper's remote-controlled hosts respond exactly
// like this.
func (s *Server) notFound(region Region) []byte {
	key := respKey{region: region, fetch: notFoundFetch}
	wire, ok := s.cachedResponse(key)
	if !ok {
		resp := httpwire.NewResponse(404, "Not Found", []byte("<html><body>No such site here</body></html>"))
		s.profile.apply(resp, region)
		wire = resp.Marshal()
		s.storeResponse(key, wire)
	}
	return wire
}

// NewServer attaches server logic to a TCP stack, listening on port 80.
func NewServer(stack *tcpsim.Stack, region Region, profile ServerProfile) *Server {
	s := &Server{
		stack: stack, region: region, profile: profile,
		sites:   make(map[string]*Site),
		fetches: make(map[string]int),
	}
	stack.Listen(80, s.accept)
	return s
}

// Host adds a site to this server's virtual hosts.
func (s *Server) Host(site *Site) { s.sites[site.Domain] = site }

// ServeParked turns the server into a parking edge answering any domain.
func (s *Server) ServeParked() { s.parking = true }

// Reset rewinds per-fetch state — the fetch counters that drive dynamic
// content and the request tally — to the just-built state. Hosted sites
// and parking mode are build-time configuration and stay, as does the
// response cache: regeneration is deterministic, so cached bytes are
// exactly what a fresh server would serve.
func (s *Server) Reset() {
	clear(s.fetches)
	s.Requests = 0
}

// accept wires per-connection request parsing. Each parsed request (or
// malformed message) is consumed from the connection, so a keep-alive
// connection holds only the unparsed tail, however many requests it
// carries.
func (s *Server) accept(c *tcpsim.Conn) {
	c.OnData = func(c *tcpsim.Conn) {
		for {
			stream := c.ReadStream()
			req, rest, err := httpwire.ParseRequest(stream)
			if err == httpwire.ErrIncomplete {
				return
			}
			c.Consume(len(stream) - len(rest))
			if err != nil {
				// Malformed message (e.g. the trailing junk left by the
				// multiple-Host evasion): 400, keep the connection.
				c.Send(badRequest)
				continue
			}
			s.respond(c, req)
		}
	}
}

// respond serves one parsed request per RFC 2616 semantics: the first Host
// header, matched case-insensitively with LWS-trimmed value, selects the
// virtual host.
func (s *Server) respond(c *tcpsim.Conn, req *httpwire.Request) {
	host, ok := req.Host()
	if !ok {
		c.Send(missingHost)
		return
	}
	region := s.region
	if s.RegionOf != nil {
		region = s.RegionOf(c.RemoteAddr())
	}
	s.Requests++
	if s.parking {
		// Parking services answer on one (anycast) address but route the
		// request to region-local infrastructure: content, headers and
		// title all depend on where the client sits — the GoDaddy-style
		// false positive of §6.2. Only some listings run different edge
		// software per region (different header names); the rest differ
		// in content alone, which OONI's header check clears.
		key := respKey{host: host, region: region}
		wire, ok := s.cachedResponse(key)
		if !ok {
			resp := httpwire.NewResponse(200, "OK", RenderParkedBody(host, region))
			profile := ProfileParkIntl
			if region == RegionIN && hashBool(host, "park-soft", 40) {
				profile = ProfileParkIN
			}
			profile.apply(resp, region)
			wire = resp.Marshal()
			s.storeResponse(key, wire)
		}
		c.Send(wire)
		s.finish(c, req)
		return
	}
	site, hosted := s.sites[host]
	if !hosted {
		c.Send(s.notFound(region))
		s.finish(c, req)
		return
	}
	s.fetches[host]++
	// The fetch counter shapes content only for dynamic sites; everything
	// else caches under fetch 0, one entry per (host, region).
	key := respKey{host: host, region: region}
	if site.Kind == KindDynamic {
		key.fetch = s.fetches[host]
	}
	wire, ok := s.cachedResponse(key)
	if !ok {
		resp := httpwire.NewResponse(200, "OK", RenderBody(PageSpec{
			Site: site, Region: region, Fetch: s.fetches[host],
		}))
		profile := s.profile
		if site.RegionalHeaders && region == RegionIN {
			// Regional edge running different software: different header
			// names.
			profile = ProfileCDNEdge
		}
		profile.apply(resp, region)
		wire = resp.Marshal()
		s.storeResponse(key, wire)
	}
	c.Send(wire)
	s.finish(c, req)
}

// finish closes the connection if the client asked for it.
func (s *Server) finish(c *tcpsim.Conn, req *httpwire.Request) {
	if v, ok := req.HeaderValue("Connection"); ok && v == "close" {
		c.Close()
	}
}
