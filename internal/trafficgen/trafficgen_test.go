package trafficgen_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/obs"
)

// loadWorld is a minimal two-router world for exercising the generator in
// isolation: generator hosts on one side, a silent sink behind a bounded
// interceptor on the other. SYNs cross the box (churning its flow table)
// and die at the sink, so every user cycles through the full tick path —
// wake, Zipf sample, packet build, send, deadline expiry, re-think —
// forever.
type loadWorld struct {
	eng  *sim.Engine
	gen  *trafficgen.Generator
	box  *middlebox.Interceptor
	sink netip.Addr
	// flows, evictions and occupancy are the generator's and the box's
	// instruments in the engine registry, read the way operators scrape
	// them.
	flows, evictions *obs.Counter
	occupancy        *obs.Gauge
}

func buildLoadWorld(tb testing.TB, hosts, users int) *loadWorld {
	tb.Helper()
	eng := sim.NewEngine(7)
	net := netsim.New(eng)

	genR := net.AddRouter("gen", 101, netip.AddrFrom4([4]byte{10, 0, 0, 1}))
	sinkR := net.AddRouter("sink", 64501, netip.AddrFrom4([4]byte{10, 1, 0, 1}))
	net.Link(genR, sinkR, 2*time.Millisecond)
	net.ClaimPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 24), genR)
	net.ClaimPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, 0, 0}), 24), sinkR)

	var genHosts []*netsim.Host
	for i := 0; i < hosts; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(200 + i)})
		genHosts = append(genHosts, net.AddHost(addr, genR, time.Millisecond))
	}
	// The sink has no TCP handler: arriving SYNs vanish and users take the
	// deadline path, the steadiest possible churn.
	sink := netip.AddrFrom4([4]byte{10, 1, 0, 2})
	net.AddHost(sink, sinkR, time.Millisecond)

	box := middlebox.NewInterceptor(net, middlebox.Config{
		ID: "loadbox", ASN: 64501,
		Blocklist:    middlebox.NewBlocklist(nil),
		Scope:        middlebox.ScopeAll,
		FlowCapacity: 64,
	}, true)
	sinkR.AttachInline(box)

	targets := make([]trafficgen.Target, 8)
	for i := range targets {
		d := fmt.Sprintf("bg%d.example.com", i)
		targets[i] = trafficgen.Target{
			Domain: d, Addr: sink,
			Req: httpwire.StandardGET(d, "/"),
		}
	}

	net.Build()
	gen := trafficgen.New(eng, targets, []trafficgen.ISPConfig{{
		Name: "load", Hosts: genHosts, Users: users,
		HTTPShare: 1, Think: 200 * time.Millisecond, ZipfS: 1.1,
	}})
	net.MarkBaseline()
	gen.Start()
	reg := eng.Obs()
	return &loadWorld{
		eng: eng, gen: gen, box: box, sink: sink,
		flows:     reg.Counter("trafficgen_flows_total"),
		evictions: reg.Counter(obs.Name("middlebox_flow_evictions_total", "box", "loadbox")),
		occupancy: reg.Gauge(obs.Name("middlebox_flow_occupancy", "box", "loadbox")),
	}
}

// TestBackgroundTickZeroAlloc is the CI gate on the tentpole's hot-path
// contract: once warm, driving population-scale background traffic — user
// wakes, Zipf draws, packet sends, flow-table churn with evictions, and
// deadline-driven rescheduling — allocates nothing.
func TestBackgroundTickZeroAlloc(t *testing.T) {
	w := buildLoadWorld(t, 1, 128)

	// Warm: two full deadline cycles seed the timer arena, the flow
	// table's slot arena and every per-user packet.
	w.eng.RunFor(6 * time.Second)
	if w.flows.Value() == 0 {
		t.Fatalf("warmup drove no flows")
	}
	if w.evictions.Value() == 0 {
		t.Fatalf("warmup churned no flow-table capacity (box len %d)", w.occupancy.Value())
	}

	allocs := testing.AllocsPerRun(10, func() {
		w.eng.RunFor(500 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("background tick allocated %.1f times per 500ms slice, want 0", allocs)
	}
}

// TestGeneratorRestartDeterminism pins the Start contract Reset relies on:
// rewinding the engine and calling Start again reproduces the exact flow
// and eviction sequence of the first run.
func TestGeneratorRestartDeterminism(t *testing.T) {
	w := buildLoadWorld(t, 1, 64)

	run := func() (uint64, uint64, int64) {
		w.eng.RunFor(5 * time.Second)
		return w.flows.Value(), w.evictions.Value(), w.occupancy.Value()
	}
	f1, e1, l1 := run()
	if f1 == 0 {
		t.Fatalf("no flows generated")
	}

	w.eng.Reset()
	w.box.Reset()
	w.gen.Start()
	f2, e2, l2 := run()
	if f1 != f2 || e1 != e2 || l1 != l2 {
		t.Fatalf("restart diverged: flows %d/%d evictions %d/%d len %d/%d", f1, f2, e1, e2, l1, l2)
	}
}

// TestUsersSeatedAcrossHosts checks the round-robin seating and the
// port-space invariant.
func TestUsersSeatedAcrossHosts(t *testing.T) {
	w := buildLoadWorld(t, 3, 100)
	if got := w.gen.Users(); got != 100 {
		t.Fatalf("Users() = %d, want 100", got)
	}
	// First flows finish only after the 2s flow deadline fires.
	w.eng.RunFor(3 * time.Second)
	if w.flows.Value() == 0 {
		t.Fatalf("multi-host population generated no flows")
	}
}
