package middlebox

import (
	"time"

	"repro/internal/httpwire"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/obs"
)

// ResponseBytes renders the forged HTTP response carrying the censorship
// notification for this style.
func (s NotifStyle) ResponseBytes() []byte {
	resp := httpwire.NewResponse(200, "OK", []byte(s.BodyHTML))
	if s.MimicHeaders {
		// Same header names as a typical origin server (websim's
		// ProfileStandard): Content-Length, Content-Type, Server.
		resp.AddHeader("Content-Type", "text/html")
		resp.AddHeader("Server", "nginx/1.14.2")
	} else {
		resp.AddHeader("Content-Type", "text/html")
		resp.AddHeader("X-Information", "network-blocked")
	}
	return resp.Marshal()
}

// Wiretap is a tap-fed middlebox (Airtel, Jio). It cannot stop packets; it
// injects forged ones and hopes to win the race with the real response.
type Wiretap struct {
	Cfg Config
	// LossProb is the probability the box processes a trigger too slowly
	// and the genuine response beats its forgery to the client (the paper
	// observed the page rendering in ~3 of 10 attempts through WMs).
	LossProb float64
	// InjectDelay is the box's processing latency for a trigger.
	InjectDelay time.Duration
	// SlowDelay is the processing latency on a lost race.
	SlowDelay time.Duration

	net *netsim.Network
	tbl *flowTable
	// notif is the forged notification body, rendered once — the style is
	// build-time configuration, so every trigger reuses the same bytes.
	notif []byte

	// Triggers counts censorship events fired; LostRaces the subset
	// deliberately delayed.
	Triggers  int
	LostRaces int

	// Per-box obs mirrors of the counters above plus the injected-RST
	// count, labeled by box ID in the world registry.
	cTriggers  *obs.Counter
	cLostRaces *obs.Counter
	cResets    *obs.Counter
}

// NewWiretap builds a wiretap middlebox; attach it with Router.AttachTap.
func NewWiretap(net *netsim.Network, cfg Config, lossProb float64) *Wiretap {
	w := &Wiretap{
		Cfg: cfg, LossProb: lossProb,
		InjectDelay: 2 * time.Millisecond,
		SlowDelay:   400 * time.Millisecond,
		net:         net,
		notif:       cfg.Style.ResponseBytes(),
	}
	reg := net.Engine().Obs()
	w.cTriggers = reg.Counter(obs.Name("middlebox_triggers_total", "box", cfg.ID))
	w.cLostRaces = reg.Counter(obs.Name("middlebox_lost_races_total", "box", cfg.ID))
	w.cResets = reg.Counter(obs.Name("middlebox_rst_injections_total", "box", cfg.ID))
	w.tbl = newFlowTable(cfg.timeout(), cfg.flowCapacity(), net.Engine().Now,
		reg.Counter(obs.Name("middlebox_flow_evictions_total", "box", cfg.ID)),
		reg.Gauge(obs.Name("middlebox_flow_occupancy", "box", cfg.ID)))
	return w
}

// Reset clears the box's flow table and trigger counters, restoring the
// just-deployed state for world pooling.
func (w *Wiretap) Reset() {
	w.tbl.reset()
	w.Triggers = 0
	w.LostRaces = 0
	w.cTriggers.Reset()
	w.cLostRaces.Reset()
	w.cResets.Reset()
}

// Observe implements netsim.Tap.
func (w *Wiretap) Observe(pkt *netpkt.Packet, at *netsim.Router) {
	if pkt.TCP == nil {
		return
	}
	if pkt.TCP.DstPort != 80 && pkt.TCP.SrcPort != 80 {
		return // port-80-only inspection (§6.3)
	}
	st, c2s := w.tbl.observe(pkt)
	if st == nil || !c2s || !st.established || len(pkt.TCP.Payload) == 0 {
		return
	}
	if !w.Cfg.inScope(pkt.IP.Src, pkt.IP.Dst) {
		return
	}
	host, ok := ExtractHost(pkt.TCP.Payload, w.Cfg.LastHostMatch)
	if !ok || !w.Cfg.Blocklist.Contains(host) {
		return
	}
	w.Triggers++
	w.cTriggers.Inc()

	client, server := pkt.IP.Src, pkt.IP.Dst
	cPort, sPort := pkt.TCP.SrcPort, pkt.TCP.DstPort
	notif := w.notif
	seq := st.serverNxt
	ack := pkt.TCP.Seq + pkt.TCP.SeqSpan()

	delay := w.InjectDelay
	if w.net.Engine().Rand().Float64() < w.LossProb {
		delay = w.SlowDelay
		w.LostRaces++
		w.cLostRaces.Inc()
	}
	eng := w.net.Engine()
	// Forged notification: 200 OK body, FIN+PSH+ACK, server's address.
	eng.Schedule(delay, func() {
		p := netpkt.NewTCP(server, client, &netpkt.TCPSegment{
			SrcPort: sPort, DstPort: cPort,
			Seq: seq, Ack: ack,
			Flags: netpkt.FIN | netpkt.PSH | netpkt.ACK, Window: 65535,
			Payload: notif,
		})
		p.IP.ID = w.Cfg.Style.IPID
		w.net.InjectAt(at, p)
	})
	// Follow-up RST, sequenced after the forged FIN so the client stack
	// accepts it even mid-teardown.
	eng.Schedule(delay+3*time.Millisecond, func() {
		p := netpkt.NewTCP(server, client, &netpkt.TCPSegment{
			SrcPort: sPort, DstPort: cPort,
			Seq:   seq + uint32(len(notif)) + 1,
			Flags: netpkt.RST, Window: 65535,
		})
		p.IP.ID = w.Cfg.Style.IPID
		w.cResets.Inc()
		w.net.InjectAt(at, p)
	})
}
