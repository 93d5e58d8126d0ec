// Package trafficgen synthesizes population-scale background traffic: per
// ISP, a pool of users who browse a Zipf-ranked site list with exponential
// think times, mixing DNS lookups, HTTP page fetches and HTTPS handshakes.
// Their packets enter the world through dedicated generator hosts on the
// ISP's edges and cross the same links and middlebox flow tables the
// measurement probes do, which is what makes load-dependent censorship
// behavior — flow-table eviction misses, injection races under pressure —
// observable while a campaign measures.
//
// The tick path is allocation-free at steady state: user records live in
// one flat slice per generator host, every packet a user sends is embedded
// in its record and re-initialized in place, request payloads (GET bytes,
// ClientHello, DNS query) are pre-rendered per target at build time, and
// all scheduling goes through sim.Engine.ScheduleCall with package-level
// dispatchers. The TestBackgroundTickZeroAlloc gate and the repolint
// hotpathalloc analyzer both enforce this.
//
// Everything a generator does is driven by the engine's seeded RNG in
// event order, so background load is as deterministic as the rest of the
// world: Start is called once after the world is built and once at the end
// of every World.Reset, producing the identical draw sequence either way —
// the property campaign replica pooling depends on.
package trafficgen

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/obs"
)

// BasePort is the first local port a generator host assigns its users;
// user i on a host holds TCP and UDP port BasePort+i for every flow.
const BasePort = 10000

// flowDeadline bounds one flow attempt: a user whose request got
// blackholed (or aimed at a dead address) gives up after this much virtual
// time and thinks again.
const flowDeadline = 2 * time.Second

// Target is one destination of the shared ranked site list, with every
// request pre-rendered at build time so the tick path never allocates.
type Target struct {
	Domain string
	// Addr is where the population connects (the in-region answer for the
	// domain).
	Addr netip.Addr
	// Req is the rendered HTTP GET (Host header included), TLS the
	// rendered ClientHello carrying the domain as SNI, DNSQ the rendered
	// DNS A query.
	Req  []byte
	TLS  []byte
	DNSQ []byte
}

// ISPConfig seats one ISP's population on its edge generator hosts.
type ISPConfig struct {
	Name string
	// Hosts are the ISP's generator hosts (one per edge), dedicated to the
	// population: trafficgen owns their TCP handler and the user-port UDP
	// handlers.
	Hosts []*netsim.Host
	Users int
	// Request-mix weights; all zero means pure HTTP.
	DNSShare, HTTPShare, HTTPSShare float64
	// Think is the mean of the exponential think-time distribution.
	Think time.Duration
	// ZipfS is the popularity exponent over the ranked target list.
	ZipfS float64
	// Resolver receives the population's DNS queries (the ISP's
	// subscriber-default resolver).
	Resolver netip.Addr
}

// Generator drives the configured populations through the world's engine.
type Generator struct {
	eng     *sim.Engine
	targets []Target
	isps    []*genISP
	users   int

	// Obs instruments from the world registry; all virtual-event driven,
	// so background-load telemetry is deterministic like the load itself.
	cFlows    *obs.Counter
	cWakes    *obs.Counter
	cReqDNS   *obs.Counter
	cReqHTTP  *obs.Counter
	cReqHTTPS *obs.Counter
}

type genISP struct {
	cfg genISP0
	// cdf is the Zipf cumulative distribution over the shared target list.
	cdf []float64
	// dnsCut/httpCut partition [0,1): below dnsCut → DNS, below httpCut →
	// HTTP, else HTTPS.
	dnsCut, httpCut float64
	hosts           []*genHost
}

// genISP0 is the subset of ISPConfig the tick path reads.
type genISP0 struct {
	name     string
	think    float64 // mean think time in nanoseconds
	resolver netip.Addr
}

// genHost owns the users seated on one generator host and demultiplexes
// arriving packets to them by destination port.
type genHost struct {
	g     *Generator
	isp   *genISP
	host  *netsim.Host
	users []user
}

type userState uint8

const (
	stIdle userState = iota
	stDNS            // DNS query in flight
	stSyn            // TCP SYN sent, waiting for SYN-ACK
	stReq            // request sent, waiting for first response bytes
)

// user is one synthetic subscriber. The record embeds every packet it ever
// sends; a packet slot is re-initialized in place right before each send
// and is never reused while a previous flight could still be live (one
// flow at a time, distinct slots per step, think time ≫ path latency).
type user struct {
	gh       *genHost
	port     uint16
	state    userState
	dst      netip.Addr
	dstPort  uint16
	iss      uint32
	reqLen   uint32
	deadline sim.Timer

	synSeg, ackSeg, reqSeg, rstSeg netpkt.TCPSegment
	synPkt, ackPkt, reqPkt, rstPkt netpkt.Packet
	udpDgram                       netpkt.UDPDatagram
	udpPkt                         netpkt.Packet
}

// Top-level dispatchers keep ScheduleCall closure-free: referencing a
// named function as a value points at static code, so scheduling never
// allocates.
func wakeFn(a, b any)     { a.(*user).wake() }
func deadlineFn(a, b any) { a.(*user).expire() }

// New builds a generator: it seats each ISP's users round-robin across the
// ISP's generator hosts, precomputes the Zipf tables, and claims the
// hosts' TCP and per-user-port UDP handlers. Call it before the network's
// MarkBaseline so the UDP registrations survive World.Reset; nothing here
// draws engine randomness or schedules events — Start does that.
func New(eng *sim.Engine, targets []Target, isps []ISPConfig) *Generator {
	g := &Generator{eng: eng, targets: targets}
	reg := eng.Obs()
	g.cFlows = reg.Counter("trafficgen_flows_total")
	g.cWakes = reg.Counter("trafficgen_wakes_total")
	g.cReqDNS = reg.Counter(obs.Name("trafficgen_requests_total", "kind", "dns"))
	g.cReqHTTP = reg.Counter(obs.Name("trafficgen_requests_total", "kind", "http"))
	g.cReqHTTPS = reg.Counter(obs.Name("trafficgen_requests_total", "kind", "https"))
	for i := range isps {
		cfg := isps[i]
		if cfg.Users <= 0 || len(cfg.Hosts) == 0 || len(targets) == 0 {
			continue
		}
		total := cfg.DNSShare + cfg.HTTPShare + cfg.HTTPSShare
		if total <= 0 {
			cfg.HTTPShare, total = 1, 1
		}
		think := cfg.Think
		if think <= 0 {
			think = 3 * time.Second
		}
		gi := &genISP{
			cfg:     genISP0{name: cfg.Name, think: float64(think), resolver: cfg.Resolver},
			cdf:     zipfCDF(len(targets), cfg.ZipfS),
			dnsCut:  cfg.DNSShare / total,
			httpCut: (cfg.DNSShare + cfg.HTTPShare) / total,
		}
		n := len(cfg.Hosts)
		for h := 0; h < n; h++ {
			cnt := cfg.Users / n
			if h < cfg.Users%n {
				cnt++
			}
			if cnt == 0 {
				continue
			}
			if cnt > 1<<16-BasePort {
				panic(fmt.Sprintf("trafficgen: %s seats %d users on one host, exceeding the %d-port space",
					cfg.Name, cnt, 1<<16-BasePort))
			}
			gh := &genHost{g: g, isp: gi, host: cfg.Hosts[h], users: make([]user, cnt)}
			for u := range gh.users {
				gh.users[u].gh = gh
				gh.users[u].port = BasePort + uint16(u)
				gh.host.SetUDPHandler(gh.users[u].port, gh.handleUDP)
			}
			gh.host.SetTCPHandler(gh.handleTCP)
			gi.hosts = append(gi.hosts, gh)
		}
		g.users += cfg.Users
		g.isps = append(g.isps, gi)
	}
	return g
}

// Users returns the total seated population.
func (g *Generator) Users() int { return g.users }

// Start rewinds every user to idle and primes one staggered wake per user
// from the engine RNG. It runs once at the end of world construction and
// once at the end of every World.Reset; because the engine RNG is freshly
// seeded at both points and users are visited in fixed build order, the
// draw sequence — and therefore all background load — is identical, which
// is what keeps a reset world byte-identical to a fresh one.
func (g *Generator) Start() {
	g.cFlows.Reset()
	rng := g.eng.Rand()
	for _, gi := range g.isps {
		think := gi.cfg.think
		for _, gh := range gi.hosts {
			for u := range gh.users {
				usr := &gh.users[u]
				usr.deadline.Stop()
				usr.state = stIdle
				g.eng.ScheduleCall(time.Duration(rng.Float64()*think), wakeFn, usr, nil)
			}
		}
	}
}

// wake starts one flow: sample a target by popularity, a request kind by
// mix weight, and send the opening packet.
//
//repolint:hotpath
func (u *user) wake() {
	gh := u.gh
	gi := gh.isp
	gh.g.cWakes.Inc()
	rng := gh.g.eng.Rand()
	tgt := &gh.g.targets[sampleCDF(gi.cdf, rng.Float64())]
	mix := rng.Float64()
	switch {
	case mix < gi.dnsCut:
		gh.g.cReqDNS.Inc()
		u.state = stDNS
		u.dst = gi.cfg.resolver
		u.udpDgram = netpkt.UDPDatagram{SrcPort: u.port, DstPort: 53, Payload: tgt.DNSQ}
		u.udpPkt = netpkt.Packet{
			IP:  netpkt.IPv4{Src: gh.host.Addr(), Dst: u.dst, TTL: 64, Protocol: netpkt.ProtoUDP},
			UDP: &u.udpDgram,
		}
		gh.host.Send(&u.udpPkt)
	default:
		payload := tgt.Req
		u.dstPort = 80
		if mix >= gi.httpCut {
			payload = tgt.TLS
			u.dstPort = 443
			gh.g.cReqHTTPS.Inc()
		} else {
			gh.g.cReqHTTP.Inc()
		}
		u.state = stSyn
		u.dst = tgt.Addr
		u.iss = rng.Uint32()
		u.reqLen = uint32(len(payload))
		u.synSeg = netpkt.TCPSegment{
			SrcPort: u.port, DstPort: u.dstPort,
			Seq: u.iss, Flags: netpkt.SYN, Window: 65535,
		}
		u.reqSeg = netpkt.TCPSegment{
			SrcPort: u.port, DstPort: u.dstPort,
			Seq: u.iss + 1, Flags: netpkt.ACK | netpkt.PSH, Window: 65535,
			Payload: payload,
		}
		u.initTCP(&u.synPkt, &u.synSeg)
		gh.host.Send(&u.synPkt)
	}
	u.deadline = gh.g.eng.ScheduleCall(flowDeadline, deadlineFn, u, nil)
}

// initTCP re-initializes an embedded packet slot in place (routers mutate
// the shared packet's TTL in flight, so headers are rebuilt per send).
//
//repolint:hotpath
func (u *user) initTCP(p *netpkt.Packet, seg *netpkt.TCPSegment) {
	p.IP = netpkt.IPv4{Src: u.gh.host.Addr(), Dst: u.dst, TTL: 64, Protocol: netpkt.ProtoTCP}
	p.TCP = seg
	p.UDP = nil
	p.ICMP = nil
}

// handleTCP demultiplexes an arriving TCP packet to its user by local
// port. Packets from anyone but the user's current peer — late responses
// racing a forged RST, stack resets from finished flows — are ignored.
//
//repolint:hotpath
func (gh *genHost) handleTCP(pkt *netpkt.Packet) {
	tcp := pkt.TCP
	i := int(tcp.DstPort) - BasePort
	if i < 0 || i >= len(gh.users) {
		return
	}
	u := &gh.users[i]
	if pkt.IP.Src != u.dst || tcp.SrcPort != u.dstPort {
		return
	}
	switch u.state {
	case stSyn:
		if tcp.Flags.Has(netpkt.SYN|netpkt.ACK) && tcp.Ack == u.iss+1 {
			// Establish, then request — two packets on the same FIFO path,
			// so every on-path middlebox observes the completed handshake
			// before it sees payload.
			u.ackSeg = netpkt.TCPSegment{
				SrcPort: u.port, DstPort: u.dstPort,
				Seq: u.iss + 1, Ack: tcp.Seq + 1, Flags: netpkt.ACK, Window: 65535,
			}
			u.initTCP(&u.ackPkt, &u.ackSeg)
			gh.host.Send(&u.ackPkt)
			u.reqSeg.Ack = tcp.Seq + 1
			u.initTCP(&u.reqPkt, &u.reqSeg)
			gh.host.Send(&u.reqPkt)
			u.state = stReq
			return
		}
		if tcp.Flags.Has(netpkt.RST) {
			u.finish()
		}
	case stReq:
		if tcp.Flags.Has(netpkt.RST) {
			u.finish()
			return
		}
		if len(tcp.Payload) > 0 || tcp.Flags.Has(netpkt.FIN) {
			// First response bytes (real page or forged notification): tear
			// the connection down the cheap way, like embedded HTTP clients
			// under churn do. The RST carries the sequence the server
			// expects next, so its stack drops the connection immediately.
			u.rstSeg = netpkt.TCPSegment{
				SrcPort: u.port, DstPort: u.dstPort,
				Seq: u.iss + 1 + u.reqLen, Flags: netpkt.RST, Window: 65535,
			}
			u.initTCP(&u.rstPkt, &u.rstSeg)
			gh.host.Send(&u.rstPkt)
			u.finish()
		}
	}
}

// handleUDP completes a DNS flow: any answer to the user's query port ends
// the visit (poisoned and honest answers alike keep the population's
// traffic shape identical).
//
//repolint:hotpath
func (gh *genHost) handleUDP(pkt *netpkt.Packet) {
	i := int(pkt.UDP.DstPort) - BasePort
	if i < 0 || i >= len(gh.users) {
		return
	}
	u := &gh.users[i]
	if u.state != stDNS || pkt.IP.Src != u.dst {
		return
	}
	u.finish()
}

// finish ends the current flow and schedules the next think-time wake.
//
//repolint:hotpath
func (u *user) finish() {
	u.deadline.Stop()
	u.rest()
}

// expire is the deadline path: the flow hung (blackholed request, dead
// destination) and the user gives up.
//
//repolint:hotpath
func (u *user) expire() {
	if u.state == stIdle {
		return
	}
	u.rest()
}

//repolint:hotpath
func (u *user) rest() {
	g := u.gh.g
	g.cFlows.Inc()
	u.state = stIdle
	think := u.gh.isp.cfg.think
	d := g.eng.Rand().ExpFloat64() * think
	if cap := 8 * think; d > cap {
		d = cap
	}
	g.eng.ScheduleCall(time.Duration(d), wakeFn, u, nil)
}

// zipfCDF precomputes the cumulative Zipf(s) popularity distribution over
// n ranked targets: weight(rank r) ∝ (r+1)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sampleCDF returns the first index whose cumulative weight exceeds r —
// a hand-rolled binary search, because sort.Search builds a closure and
// the tick path must not allocate.
//
//repolint:hotpath
func sampleCDF(cdf []float64, r float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
