package ispnet

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"time"

	"repro/internal/dnssim"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trafficgen"
	"repro/internal/websim"
	"repro/obs"
)

// Config sizes the world. The zero value is not useful; use DefaultConfig.
type Config struct {
	Seed       int64
	PBWCount   int
	AlexaCount int
	VPCount    int // PlanetLab-style vantage points spread across pods
	Pods       int
	Profiles   []Profile
}

// DefaultConfig is the paper-scale world: 1200 PBWs, Alexa 1000, 40 VPs —
// the compiled PaperScenario.
func DefaultConfig() Config {
	return mustCompile(PaperScenario())
}

// SmallConfig is a reduced world for unit tests: same structure, fewer
// sites and vantage points — the compiled SmallScenario.
func SmallConfig() Config {
	return mustCompile(SmallScenario())
}

// mustCompile lowers a scenario known to validate (the built-in ones).
func mustCompile(s Scenario) Config {
	cfg, err := s.Compile()
	if err != nil {
		panic(fmt.Sprintf("ispnet: built-in scenario %q: %v", s.Name, err))
	}
	return cfg
}

// Endpoint is a measurement-capable host: TCP stack, DNS stub, and an
// ordinary web server (the paper's remote controlled hosts double as both
// vantage points and observation servers).
type Endpoint struct {
	Host   *netsim.Host
	TCP    *tcpsim.Stack
	DNS    *dnssim.Client
	Server *websim.Server
	Region websim.Region
	Pod    int // pod index for VPs, -1 otherwise
	// World links back to the world the endpoint lives in (signature
	// catalogue, engine access).
	World *World
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() netip.Addr { return e.Host.Addr() }

// BoxRef is the world's registry entry for one deployed middlebox.
type BoxRef struct {
	ID     string
	Owner  string
	ASN    int
	Router *netsim.Router
	Kind   CensorKind
	List   middlebox.Blocklist
	Scope  middlebox.Scope
	WM     *middlebox.Wiretap
	IM     *middlebox.Interceptor
}

// Triggers returns the box's trigger count.
func (b *BoxRef) Triggers() int {
	if b.WM != nil {
		return b.WM.Triggers
	}
	return b.IM.Triggers
}

// ISP is one built network operator.
type ISP struct {
	Profile
	World *World

	Core    *netsim.Router
	Edges   []*netsim.Router
	Borders []*netsim.Router

	Prefixes []netip.Prefix
	Client   *Endpoint
	// DefaultResolver is what the ISP hands its subscribers via DHCP.
	DefaultResolver netip.Addr
	Resolvers       []*dnssim.Resolver
	Boxes           []*BoxRef
	// HTTPList is the ISP's full HTTP blocklist (union over its boxes);
	// DNSList the DNS one.
	HTTPList []string
	DNSList  []string
	// Targets are in-ISP hosts with TCP port 80 open, the destinations the
	// paper's outside-in scans discover (2 per prefix).
	Targets []netip.Addr
	// BlockIP is the static address poisoned resolvers usually answer with.
	BlockIP netip.Addr

	// genHosts are the per-edge generator hosts that carry the ISP's
	// synthetic background population (nil when Population.Users == 0).
	genHosts []*netsim.Host

	peers []transitPeer
}

// Peers returns the ISP's wired transit links (provider name, peering
// router, collateral list size).
func (i *ISP) Peers() []struct {
	Provider string
	Router   *netsim.Router
} {
	out := make([]struct {
		Provider string
		Router   *netsim.Router
	}, len(i.peers))
	for k, tp := range i.peers {
		out[k].Provider = tp.provider.Name
		out[k].Router = tp.router
	}
	return out
}

// World is the fully assembled simulation.
type World struct {
	Cfg       Config
	Eng       *sim.Engine
	Net       *netsim.Network
	Catalog   *websim.Catalog
	Authority *dnssim.CatalogAuthority

	ISPs    map[string]*ISP
	ISPList []*ISP

	Hub  *netsim.Router
	Pods []*netsim.Router

	TorExit   *Endpoint
	Control   *Endpoint
	GoogleDNS netip.Addr
	VPs       []*Endpoint

	// Traffic drives the synthetic background populations; nil when no
	// profile seats users.
	Traffic *trafficgen.Generator

	boxesByRouter map[int][]*BoxRef
	regionByASN   map[int]websim.Region
	addrCounters  map[int]int
	podBorders    map[string][]*netsim.Router // ISP -> border adjacent to each pod
	podPolicies   map[int]*podPolicy

	// resetters rewind the runtime state of every stateful component built
	// into the world (TCP stacks, web servers, DNS clients and resolvers),
	// in build order; Reset runs them after rewinding the engine.
	resetters []func()
	// notifSigs is the per-world notification catalogue (build-time).
	notifSigs []NotifSignature
}

// onReset registers a component rewind to run during Reset.
func (w *World) onReset(fn func()) { w.resetters = append(w.resetters, fn) }

// Obs returns the world's telemetry registry — the engine-owned per-world
// registry every component resolved its instruments from at build time.
// Its contents count virtual events only and rewind with Reset, so they
// are byte-identical across pooled replicas and campaign workers.
func (w *World) Obs() *obs.Registry { return w.Eng.Obs() }

// Rebind marks a serialized ownership hand-off: the caller asserts that
// all previous use of the world happened-before this call (it holds the
// mutex, or took the world from a parked pool) and that whichever
// goroutine touches the world next owns it. It releases the buffer pool's
// goroutine guard in race/repolint_debug builds and costs nothing
// otherwise. Reset implies it.
func (w *World) Rebind() { w.Net.RebindPool() }

// Reset restores the world to its just-built state: the engine clock,
// event queue and random source rewind to the seed, every TCP stack drops
// its connections, web servers forget their fetch counters, middleboxes
// clear flow tables and trigger counts, and hosts lose runtime handler
// registrations (ephemeral DNS ports, tracer ICMP hooks, packet filters).
// Topology, routing, blocklists and resolver poisoning are build-time
// state and survive.
//
// The contract — enforced by the campaign determinism tests — is that a
// reset world is indistinguishable from NewWorld(w.Cfg): the same
// measurement sequence produces byte-identical results on either. This is
// what lets a campaign runner pool worlds per worker instead of paying one
// build per task.
func (w *World) Reset() {
	w.Eng.Reset()
	w.Net.ResetRuntime()
	for _, fn := range w.resetters {
		fn()
	}
	for _, isp := range w.ISPList {
		for _, b := range isp.Boxes {
			if b.WM != nil {
				b.WM.Reset()
			}
			if b.IM != nil {
				b.IM.Reset()
			}
		}
		for _, r := range isp.Resolvers {
			r.Reset()
		}
	}
	if w.Traffic != nil {
		w.Traffic.Start()
	}
}

func hashStr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// pickDomains deterministically selects count domains from all, keyed by
// salt, returned in original (website-ID) order.
func pickDomains(all []string, count int, salt string) []string {
	if count >= len(all) {
		out := make([]string, len(all))
		copy(out, all)
		return out
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	// Salt goes first: FNV-1a mixes a shared suffix through the same final
	// bijection for every domain, which can preserve relative order; a
	// differing prefix perturbs the whole hash.
	sort.Slice(idx, func(a, b int) bool {
		ha, hb := hashStr(salt+"|"+all[idx[a]]), hashStr(salt+"|"+all[idx[b]])
		if ha != hb {
			return ha < hb
		}
		return idx[a] < idx[b]
	})
	chosen := append([]int(nil), idx[:count]...)
	sort.Ints(chosen)
	out := make([]string, count)
	for i, j := range chosen {
		out[i] = all[j]
	}
	return out
}

// circulantLists spreads domains across K boxes so that each domain sits on
// about s*K consecutive boxes (at least one). Per-URL widths average s*K,
// making the measured consistency metric land on s while keeping the union
// equal to the full list — the structure behind Figures 2 and 5.
func circulantLists(domains []string, K int, s float64, salt string) []([]string) {
	lists := make([][]string, K)
	if K == 0 {
		return lists
	}
	base := int(s * float64(K))
	frac := s*float64(K) - float64(base)
	for r, d := range domains {
		w := base
		if hashStr("w|"+salt+"|"+d)%1000 < uint64(frac*1000) {
			w++
		}
		if w < 1 {
			w = 1
		}
		if w > K {
			w = K
		}
		// Spread window starts evenly around the ring; r%K would leave
		// boxes beyond len(domains)+w empty whenever K > len(domains).
		start := r * K / len(domains)
		for m := 0; m < w; m++ {
			b := (start + m) % K
			lists[b] = append(lists[b], d)
		}
	}
	return lists
}

// NewWorld builds the full simulation.
func NewWorld(cfg Config) *World {
	w := &World{
		Cfg:           cfg,
		Eng:           sim.NewEngine(cfg.Seed),
		ISPs:          make(map[string]*ISP),
		boxesByRouter: make(map[int][]*BoxRef),
		regionByASN:   make(map[int]websim.Region),
		addrCounters:  make(map[int]int),
		podBorders:    make(map[string][]*netsim.Router),
	}
	w.Net = netsim.New(w.Eng)
	w.Catalog = websim.NewCatalog(cfg.PBWCount, cfg.AlexaCount)
	w.Authority = &dnssim.CatalogAuthority{Catalog: w.Catalog}

	w.buildFabric()
	w.buildWeb()
	for i := range cfg.Profiles {
		w.buildISP(&cfg.Profiles[i])
	}
	w.buildMeasurementInfra()
	w.createPeerings()
	w.Net.Build()
	w.wireTransits()
	w.buildNotifSignatures()
	w.buildTraffic()
	// Everything registered on hosts from here on is runtime state that
	// Reset rewinds.
	w.Net.MarkBaseline()
	if w.Traffic != nil {
		// Prime the background population. This is the first engine-RNG
		// consumer after the (draw-free) build, exactly as it is after
		// Reset rewinds the RNG — the byte-identity contract holds with
		// load flowing.
		w.Traffic.Start()
	}
	return w
}

// region mapping ----------------------------------------------------------

// podRegion maps a pod index to its hosting region: first half US, second
// half EU.
func (w *World) podRegion(p int) websim.Region {
	if p < w.Cfg.Pods/2 {
		return websim.RegionUS
	}
	return websim.RegionEU
}

// RegionOf geolocates an address by its originating AS.
func (w *World) RegionOf(addr netip.Addr) websim.Region {
	if r, ok := w.regionByASN[w.Net.ASNOf(addr)]; ok {
		return r
	}
	return websim.RegionUS
}

// fabric -------------------------------------------------------------------

func (w *World) buildFabric() {
	w.Hub = w.Net.AddRouter("hub", ASNHub, netip.AddrFrom4([4]byte{190, 0, 0, 1}))
	w.regionByASN[ASNHub] = websim.RegionUS
	w.regionByASN[ASNPodsUS] = websim.RegionUS
	w.regionByASN[ASNPodsEU] = websim.RegionEU
	w.regionByASN[ASNINDC] = websim.RegionIN
	w.regionByASN[ASNExt] = websim.RegionUS
	for p := 0; p < w.Cfg.Pods; p++ {
		asn := ASNPodsUS
		if w.podRegion(p) == websim.RegionEU {
			asn = ASNPodsEU
		}
		pod := w.Net.AddRouter(fmt.Sprintf("pod%d", p), asn, netip.AddrFrom4([4]byte{190, 1, byte(p), 1}))
		w.Net.Link(pod, w.Hub, 5*time.Millisecond)
		w.Net.ClaimPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{199, byte(p), 0, 0}), 16), pod)
		w.Pods = append(w.Pods, pod)
	}
}

// podIndex wraps a nominal pod index into the configured range, keeping
// the web fabric's fixed placement spots (CDN edges, the parking service)
// valid in scenario worlds with few pods. Identity at the calibrated 80.
func (w *World) podIndex(i int) int { return i % w.Cfg.Pods }

// podAddr allocates the next host address in a pod's prefix.
func (w *World) podAddr(p int) netip.Addr {
	c := w.addrCounters[p]
	w.addrCounters[p] = c + 1
	return netip.AddrFrom4([4]byte{199, byte(p), byte(1 + c/250), byte(1 + c%250)})
}

// newEndpoint builds a host with TCP stack, DNS stub and a web server.
func (w *World) newEndpoint(addr netip.Addr, r *netsim.Router, region websim.Region, profile websim.ServerProfile) *Endpoint {
	h := w.Net.AddHost(addr, r, time.Millisecond)
	st := tcpsim.NewStack(h)
	srv := websim.NewServer(st, region, profile)
	srv.EnableHTTPS()
	dns := dnssim.NewClient(h)
	w.onReset(st.Reset)
	w.onReset(srv.Reset)
	w.onReset(dns.Reset)
	return &Endpoint{
		Host: h, TCP: st, DNS: dns,
		Server: srv,
		Region: region, Pod: -1,
		World: w,
	}
}

// NotifSignature fingerprints one ISP's censorship notification: any
// stream containing Marker was forged by that ISP's middleboxes.
type NotifSignature struct {
	ISP    string
	Marker string
}

// NotifSignatures is the notification catalogue of this world — what the
// paper's researchers assembled by browsing blocked sites from every
// vantage (§6.1), derived from the deployed styles: one signature per
// ISP whose boxes send a notification body. Scenario worlds thus get
// attribution for their own custom censors, not just the paper's four.
// The catalogue is build-time state, computed once (it survives Reset).
func (w *World) NotifSignatures() []NotifSignature { return w.notifSigs }

func (w *World) buildNotifSignatures() {
	for _, isp := range w.ISPList {
		if body := isp.Profile.Style.BodyHTML; body != "" {
			w.notifSigs = append(w.notifSigs, NotifSignature{ISP: isp.Name, Marker: body})
		}
	}
}

// web ----------------------------------------------------------------------

func (w *World) buildWeb() {
	// IN-DC: the neutral Indian hosting AS (CDN IN edges, IN parking).
	indc := w.Net.AddRouter("in-dc", ASNINDC, netip.AddrFrom4([4]byte{61, 50, 255, 1}))
	w.Net.Link(indc, w.Hub, 4*time.Millisecond)
	w.Net.ClaimPrefix(netip.MustParsePrefix("61.50.0.0/16"), indc)

	cdnIN := w.newEndpoint(netip.MustParseAddr("61.50.0.200"), indc, websim.RegionIN, websim.ProfileCDNEdge)

	pUS, pEU := w.podIndex(7), w.podIndex(w.Cfg.Pods/2+7)
	cdnUS := w.newEndpoint(w.podAddr(pUS), w.Pods[pUS], websim.RegionUS, websim.ProfileCDNEdge)
	cdnEU := w.newEndpoint(w.podAddr(pEU), w.Pods[pEU], websim.RegionEU, websim.ProfileCDNEdge)
	// Several anycast CDN deployments spread across pods: one IP per
	// deployment worldwide, geo-dependent content, and — because they sit
	// behind different borders — realistic path diversity for the sites
	// they host.
	var cdnAny []*Endpoint
	for _, p := range []int{17, 22, w.Cfg.Pods/2 + 1, w.Cfg.Pods/2 + 26} {
		p = w.podIndex(p)
		ep := w.newEndpoint(w.podAddr(p), w.Pods[p], websim.RegionUS, websim.ProfileCDNEdge)
		ep.Server.RegionOf = w.RegionOf
		cdnAny = append(cdnAny, ep)
	}
	// One anycast parking service: same address worldwide, region-local
	// placeholder pages (content AND header names differ by requester
	// location) — OONI's DNS check passes, its HTTP checks all fail.
	park := w.newEndpoint(w.podAddr(w.podIndex(27)), w.Pods[w.podIndex(27)], websim.RegionUS, websim.ProfileParkIntl)
	park.Server.ServeParked()
	park.Server.RegionOf = w.RegionOf

	all := append(append([]*websim.Site(nil), w.Catalog.PBW...), w.Catalog.Alexa...)
	for _, site := range all {
		switch site.Kind {
		case websim.KindNormal, websim.KindDynamic:
			p := int(hashStr("pod|"+site.Domain) % uint64(w.Cfg.Pods))
			region := w.podRegion(p)
			site.HomeRegion = region
			addr := w.podAddr(p)
			ep := w.newEndpoint(addr, w.Pods[p], region, websim.ProfileStandard)
			ep.Server.Host(site)
			for _, rg := range w.Catalog.Regions {
				site.Addrs[rg] = addr
			}
		case websim.KindCDN:
			if hashStr("anycast|"+site.Domain)%100 < 75 {
				// Anycast edge: one IP worldwide, geo-dependent content.
				ep := cdnAny[hashStr("anyedge|"+site.Domain)%uint64(len(cdnAny))]
				ep.Server.Host(site)
				for _, rg := range w.Catalog.Regions {
					site.Addrs[rg] = ep.Addr()
				}
			} else {
				cdnIN.Server.Host(site)
				cdnUS.Server.Host(site)
				cdnEU.Server.Host(site)
				site.Addrs[websim.RegionIN] = cdnIN.Addr()
				site.Addrs[websim.RegionUS] = cdnUS.Addr()
				site.Addrs[websim.RegionEU] = cdnEU.Addr()
			}
		case websim.KindDead:
			for _, rg := range w.Catalog.Regions {
				site.Addrs[rg] = park.Addr()
			}
		case websim.KindGone:
			// Resolves into a claimed prefix where nothing listens.
			p := int(hashStr("pod|"+site.Domain) % uint64(w.Cfg.Pods))
			addr := netip.AddrFrom4([4]byte{199, byte(p), 250, byte(1 + site.PBWIndex%250)})
			for _, rg := range w.Catalog.Regions {
				site.Addrs[rg] = addr
			}
		}
	}
}

// measurement infrastructure ------------------------------------------------

func (w *World) buildMeasurementInfra() {
	ext := w.Net.AddRouter("ext-m", ASNExt, netip.AddrFrom4([4]byte{198, 51, 255, 1}))
	w.Net.Link(ext, w.Hub, 4*time.Millisecond)
	w.Net.ClaimPrefix(netip.MustParsePrefix("198.51.0.0/16"), ext)

	w.TorExit = w.newEndpoint(netip.MustParseAddr("198.51.0.10"), ext, websim.RegionUS, websim.ProfileStandard)
	w.Control = w.newEndpoint(netip.MustParseAddr("198.51.0.11"), ext, websim.RegionUS, websim.ProfileStandard)
	gdns := w.Net.AddHost(netip.MustParseAddr("198.51.0.53"), ext, time.Millisecond)
	w.onReset(dnssim.NewResolver(gdns, websim.RegionUS, w.Authority, time.Millisecond).Reset)
	w.GoogleDNS = gdns.Addr()

	for v := 0; v < w.Cfg.VPCount; v++ {
		// Spread vantage points evenly across pods, mixing parities, so
		// they sample the ISPs' border routers uniformly, like globally
		// scattered PlanetLab nodes.
		p := (v*w.Cfg.Pods/w.Cfg.VPCount + v%2) % w.Cfg.Pods
		ep := w.newEndpoint(w.podAddr(p), w.Pods[p], w.podRegion(p), websim.ProfileStandard)
		ep.Pod = p
		w.VPs = append(w.VPs, ep)
	}
}

// ISPs -----------------------------------------------------------------------

func (w *World) buildISP(p *Profile) {
	a := byte(p.ASN - 100)
	isp := &ISP{Profile: *p, World: w}
	w.regionByASN[p.ASN] = websim.RegionIN

	isp.Core = w.Net.AddRouter(p.Name+"-core", p.ASN, netip.AddrFrom4([4]byte{100, a, 0, 1}))
	isp.BlockIP = netip.AddrFrom4([4]byte{p.Base1, p.Base2, 255, 1})

	// Edges: each claims a /24 with two always-on port-80 hosts (the scan
	// targets) and a slice of the resolver fleet.
	resolversLeft := p.Resolvers
	for e := 0; e < p.Edges; e++ {
		er := w.Net.AddRouter(fmt.Sprintf("%s-edge%d", p.Name, e), p.ASN,
			netip.AddrFrom4([4]byte{100, a, byte(10 + e), 1}))
		w.Net.Link(isp.Core, er, time.Millisecond)
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{p.Base1, p.Base2, byte(e), 0}), 24)
		w.Net.ClaimPrefix(prefix, er)
		isp.Prefixes = append(isp.Prefixes, prefix)
		isp.Edges = append(isp.Edges, er)
		for t := 1; t <= 2; t++ {
			addr := netip.AddrFrom4([4]byte{p.Base1, p.Base2, byte(e), byte(t)})
			ep := w.newEndpoint(addr, er, websim.RegionIN, websim.ProfileStandard)
			_ = ep
			isp.Targets = append(isp.Targets, addr)
		}
		for k := 0; k < 8 && resolversLeft > 0; k++ {
			addr := netip.AddrFrom4([4]byte{p.Base1, p.Base2, byte(e), byte(10 + k)})
			rh := w.Net.AddHost(addr, er, time.Millisecond)
			isp.Resolvers = append(isp.Resolvers, dnssim.NewResolver(rh, websim.RegionIN, w.Authority, time.Millisecond))
			resolversLeft--
		}
		if p.Population.Users > 0 {
			// The edge's background-population generator host: one address
			// aggregates the edge's synthetic subscribers (distinguished by
			// local port), the way a CGNAT egress would.
			addr := netip.AddrFrom4([4]byte{p.Base1, p.Base2, byte(e), 200})
			isp.genHosts = append(isp.genHosts, w.Net.AddHost(addr, er, time.Millisecond))
		}
	}
	// /16 fallback at the core so dead in-ISP addresses route and drop.
	w.Net.ClaimPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{p.Base1, p.Base2, 0, 0}), 16), isp.Core)

	// The measurement client.
	clientAddr := netip.AddrFrom4([4]byte{p.Base1, p.Base2, 0, 100})
	isp.Client = w.newEndpoint(clientAddr, isp.Edges[0], websim.RegionIN, websim.ProfileStandard)

	// Borders and their pod adjacencies.
	if p.Borders > 0 {
		pb := make([]*netsim.Router, w.Cfg.Pods)
		for j := 0; j < p.Borders; j++ {
			br := w.Net.AddRouter(fmt.Sprintf("%s-border%d", p.Name, j), p.ASN,
				netip.AddrFrom4([4]byte{100, a, byte(120 + j), 1}))
			w.Net.Link(isp.Core, br, time.Millisecond)
			lo := j * w.Cfg.Pods / p.Borders
			hi := (j + 1) * w.Cfg.Pods / p.Borders
			for pd := lo; pd < hi; pd++ {
				w.Net.Link(br, w.Pods[pd], 5*time.Millisecond)
				pb[pd] = br
			}
			isp.Borders = append(isp.Borders, br)
		}
		w.podBorders[p.Name] = pb
	}

	// Blocklists.
	pbw := w.Catalog.PBWDomains()
	if p.BlockCount > 0 {
		isp.HTTPList = pickDomains(pbw, scaled(p.BlockCount, w), p.Name+"|http")
	}
	if p.DNSBlockCount > 0 {
		isp.DNSList = pickDomains(pbw, scaled(p.DNSBlockCount, w), p.Name+"|dns")
	}

	// HTTP middleboxes on evenly spread borders.
	if p.HTTPCensoring() && p.Boxes > 0 {
		lists := circulantLists(isp.HTTPList, p.Boxes, p.Consistency, p.Name)
		for k := 0; k < p.Boxes; k++ {
			j := k * p.Borders / p.Boxes
			router := isp.Borders[j]
			router.Anonymized = true
			scope := middlebox.ScopeSrcOnly
			if k < p.BoxesSrcOrDst {
				scope = middlebox.ScopeSrcOrDst
			}
			w.deployBox(isp, fmt.Sprintf("%s-box%d", p.Name, k), router, p.Censor, lists[k], scope)
		}
	}

	// DNS poisoning: the first PoisonedResolvers resolvers get circulant
	// poison lists; the client's default resolver (#0) keeps only its
	// first ClientResolverSize entries.
	if p.Censor == CensorDNS && p.PoisonedResolvers > 0 {
		k := p.PoisonedResolvers
		if k > len(isp.Resolvers) {
			k = len(isp.Resolvers)
		}
		lists := circulantLists(isp.DNSList, k, p.DNSConsistency, p.Name+"|dns")
		for i := 0; i < k; i++ {
			list := lists[i]
			if i == 0 && p.ClientResolverSize > 0 && len(list) > p.ClientResolverSize {
				list = list[:p.ClientResolverSize]
			}
			for _, d := range list {
				isp.Resolvers[i].PoisonDomain(d, dnssim.Poison{Addr: w.poisonAddr(isp, i, d)})
			}
		}
	}
	if len(isp.Resolvers) > 0 {
		isp.DefaultResolver = isp.Resolvers[0].Addr()
	} else {
		// Non-DNS-censoring ISPs still run an honest subscriber resolver.
		addr := netip.AddrFrom4([4]byte{p.Base1, p.Base2, 0, 53})
		rh := w.Net.AddHost(addr, isp.Edges[0], time.Millisecond)
		isp.Resolvers = append(isp.Resolvers, dnssim.NewResolver(rh, websim.RegionIN, w.Authority, time.Millisecond))
		isp.DefaultResolver = addr
	}

	w.ISPs[p.Name] = isp
	w.ISPList = append(w.ISPList, isp)
}

// scaled shrinks calibration counts proportionally for small worlds.
func scaled(n int, w *World) int {
	if w.Cfg.PBWCount >= 1200 {
		return n
	}
	v := n * w.Cfg.PBWCount / 1200
	if v < 1 {
		v = 1
	}
	return v
}

// poisonAddr picks the manipulated answer for a (resolver, domain) pair:
// mostly the ISP's static block host, sometimes a bogon — both patterns the
// paper's frequency analysis observed.
func (w *World) poisonAddr(isp *ISP, resolver int, domain string) netip.Addr {
	h := hashStr(fmt.Sprintf("%s|%d|%s|poison", isp.Name, resolver, domain))
	if h%100 < 70 {
		return isp.BlockIP
	}
	return netip.AddrFrom4([4]byte{10, 66, byte(h >> 8), byte(h >> 16)})
}

// deployBox instantiates one middlebox and registers it.
func (w *World) deployBox(isp *ISP, id string, router *netsim.Router, kind CensorKind, list []string, scope middlebox.Scope) *BoxRef {
	cfg := middlebox.Config{
		ID: id, ASN: isp.ASN,
		Blocklist:     middlebox.NewBlocklist(list),
		Scope:         scope,
		OwnPrefixes:   isp.Prefixes,
		LastHostMatch: kind == CensorIMCovert,
		Style:         isp.Profile.Style,
		FlowCapacity:  isp.Profile.FlowCapacity,
	}
	ref := &BoxRef{ID: id, Owner: isp.Name, ASN: isp.ASN, Router: router, Kind: kind, List: cfg.Blocklist, Scope: scope}
	switch kind {
	case CensorWM:
		ref.WM = middlebox.NewWiretap(w.Net, cfg, isp.WMLossProb)
		router.AttachTap(ref.WM)
	case CensorIMOvert:
		ref.IM = middlebox.NewInterceptor(w.Net, cfg, true)
		router.AttachInline(ref.IM)
	case CensorIMCovert:
		ref.IM = middlebox.NewInterceptor(w.Net, cfg, false)
		router.AttachInline(ref.IM)
	}
	isp.Boxes = append(isp.Boxes, ref)
	w.boxesByRouter[router.ID] = append(w.boxesByRouter[router.ID], ref)
	return ref
}

// BoxesAt returns the middleboxes deployed at a router.
func (w *World) BoxesAt(r *netsim.Router) []*BoxRef { return w.boxesByRouter[r.ID] }

// AttachBridgeHost seats a bridge-owned host on the ISP's client edge — the
// same access router, latency and routing position as the measurement
// client, so bridge traffic crosses the same middleboxes. Addresses come
// from the .0.210+ slot range the builder leaves free (client .0.100,
// resolvers .0.10+, background generators .e.200); slots are reclaimed when
// DetachBridgeHost removes the host. The host carries no handlers — callers
// seat their own stacks.
func (w *World) AttachBridgeHost(isp *ISP) (*netsim.Host, error) {
	for k := 0; k < 40; k++ {
		addr := netip.AddrFrom4([4]byte{isp.Base1, isp.Base2, 0, byte(210 + k)})
		if _, ok := w.Net.Host(addr); !ok {
			return w.Net.AddHost(addr, isp.Edges[0], time.Millisecond), nil
		}
	}
	return nil, fmt.Errorf("ispnet: %s: no free bridge host slots (40 in use)", isp.Name)
}

// DetachBridgeHost removes a bridge-owned host seated by AttachBridgeHost,
// freeing its address slot.
func (w *World) DetachBridgeHost(h *netsim.Host) { w.Net.RemoveHost(h) }

// ISP returns a built ISP by name.
func (w *World) ISP(name string) *ISP { return w.ISPs[name] }
