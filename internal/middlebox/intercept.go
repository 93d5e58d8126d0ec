package middlebox

import (
	"time"

	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/obs"
)

// Interceptor is an inline, transparent-proxy-like middlebox (Idea overt,
// Vodafone covert). Unlike a wiretap it sits on the forwarding path: the
// triggering GET is consumed, the remainder of the flow is blackholed, and
// there is no race to lose.
type Interceptor struct {
	Cfg Config
	// Overt boxes answer the client with a notification page + FIN before
	// the trailing RST; covert boxes send only the RST.
	Overt bool
	// ReplyDelay is the box's processing latency.
	ReplyDelay time.Duration

	net *netsim.Network
	tbl *flowTable
	// notif is the forged notification body, rendered once (overt boxes
	// only); the style is build-time configuration.
	notif []byte

	// The box's only counters, labeled by box ID in the world registry:
	// cTriggers counts censorship events, cBlackholed the packets dropped
	// on already-triggered flows (the timed-out 4-way teardowns), cResets
	// the injected RSTs.
	cTriggers   *obs.Counter
	cBlackholed *obs.Counter
	cResets     *obs.Counter
}

// NewInterceptor builds an interceptive middlebox; attach it with
// Router.AttachInline.
func NewInterceptor(net *netsim.Network, cfg Config, overt bool) *Interceptor {
	im := &Interceptor{Cfg: cfg, Overt: overt, ReplyDelay: time.Millisecond, net: net}
	if overt {
		im.notif = cfg.Style.ResponseBytes()
	}
	reg := net.Engine().Obs()
	im.cTriggers = reg.Counter(obs.Name("middlebox_triggers_total", "box", cfg.ID))
	im.cBlackholed = reg.Counter(obs.Name("middlebox_blackholed_total", "box", cfg.ID))
	im.cResets = reg.Counter(obs.Name("middlebox_rst_injections_total", "box", cfg.ID))
	im.tbl = newFlowTable(cfg.timeout(), cfg.flowCapacity(), net.Engine().Now,
		reg.Counter(obs.Name("middlebox_flow_evictions_total", "box", cfg.ID)),
		reg.Gauge(obs.Name("middlebox_flow_occupancy", "box", cfg.ID)))
	return im
}

// Reset clears the box's flow table and trigger counters, restoring the
// just-deployed state for world pooling.
func (im *Interceptor) Reset() {
	im.tbl.reset()
	im.cTriggers.Reset()
	im.cBlackholed.Reset()
	im.cResets.Reset()
}

// Process implements netsim.Inline.
func (im *Interceptor) Process(pkt *netpkt.Packet, at *netsim.Router) bool {
	if pkt.TCP == nil {
		return false
	}
	if pkt.TCP.DstPort != 80 && pkt.TCP.SrcPort != 80 {
		return false
	}
	st, c2s := im.tbl.observe(pkt)
	if st == nil {
		return false
	}
	if st.blackholed && c2s {
		// Everything from client to the blocked site after the trigger is
		// filtered — the paper saw the client's entire teardown time out.
		im.cBlackholed.Inc()
		return true
	}
	if !c2s || !st.established || len(pkt.TCP.Payload) == 0 {
		return false
	}
	if !im.Cfg.inScope(pkt.IP.Src, pkt.IP.Dst) {
		return false
	}
	host, ok := ExtractHost(pkt.TCP.Payload, im.Cfg.LastHostMatch)
	if !ok || !im.Cfg.Blocklist.Contains(host) {
		return false
	}
	im.cTriggers.Inc()
	st.blackholed = true

	client, server := pkt.IP.Src, pkt.IP.Dst
	cPort, sPort := pkt.TCP.SrcPort, pkt.TCP.DstPort
	seqToClient := st.serverNxt
	ackToClient := pkt.TCP.Seq + pkt.TCP.SeqSpan()
	// The RST the box sends the server carries the sequence number the
	// server expects — the GET it is pre-empting never arrives, so this
	// differs from what the client's own RST would carry, which is how
	// the paper proved the reset came from the middlebox.
	seqToServer := pkt.TCP.Seq
	eng := im.net.Engine()

	if im.Overt {
		notif := im.notif
		eng.Schedule(im.ReplyDelay, func() {
			p := netpkt.NewTCP(server, client, &netpkt.TCPSegment{
				SrcPort: sPort, DstPort: cPort,
				Seq: seqToClient, Ack: ackToClient,
				Flags: netpkt.FIN | netpkt.PSH | netpkt.ACK, Window: 65535,
				Payload: notif,
			})
			p.IP.ID = im.Cfg.Style.IPID
			im.net.InjectAt(at, p)
		})
	} else {
		eng.Schedule(im.ReplyDelay, func() {
			p := netpkt.NewTCP(server, client, &netpkt.TCPSegment{
				SrcPort: sPort, DstPort: cPort,
				Seq: seqToClient, Ack: ackToClient,
				Flags: netpkt.RST | netpkt.ACK, Window: 65535,
			})
			p.IP.ID = im.Cfg.Style.IPID
			im.cResets.Inc()
			im.net.InjectAt(at, p)
		})
	}
	eng.Schedule(im.ReplyDelay, func() {
		p := netpkt.NewTCP(client, server, &netpkt.TCPSegment{
			SrcPort: cPort, DstPort: sPort,
			Seq: seqToServer, Flags: netpkt.RST, Window: 65535,
		})
		im.cResets.Inc()
		im.net.InjectAt(at, p)
	})
	return true // the GET never reaches the server
}
