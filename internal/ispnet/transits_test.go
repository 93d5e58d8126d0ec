package ispnet

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/netsim"
)

// routeProbeAddrs lists the destinations a paper-scale world routes: the
// live hosts of every ISP /24 (among them the Table 2 scan targets) with
// four dead addresses of each, every site address, and every vantage
// point.
func routeProbeAddrs(w *World) []netip.Addr {
	var out []netip.Addr
	for _, pi := range w.Net.Prefixes() {
		if pi.Prefix.Bits() < 24 {
			continue // hosting pods: their hosts are the sites below
		}
		for a := pi.Prefix.Masked().Addr(); pi.Prefix.Contains(a); a = a.Next() {
			_, live := w.Net.Host(a)
			if last := a.As4()[3]; live || last == 0 || last == 3 || last == 250 || last == 255 {
				out = append(out, a)
			}
		}
	}
	for _, site := range append(slices.Clone(w.Catalog.PBW), w.Catalog.Alexa...) {
		for _, a := range site.Addrs {
			out = append(out, a)
		}
	}
	for _, vp := range w.VPs {
		out = append(out, vp.Addr())
	}
	return out
}

// The memoized pod policies must answer exactly as the rule scan they
// cache, on first sight and on the memo hit, and leave every router path
// unchanged.
func TestPodPolicyMemoMatchesRuleScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper-scale world")
	}
	w := NewWorld(DefaultConfig())
	if len(w.podPolicies) == 0 {
		t.Fatal("paper-2018 installs no pod policies")
	}
	addrs := routeProbeAddrs(w)
	var dsts []netip.Addr // path destinations: scan targets and dead in-prefix addresses
	for _, isp := range w.ISPList {
		dsts = append(dsts, isp.Targets...)
		for _, p := range isp.Prefixes {
			b := p.Addr().As4()
			for _, last := range []byte{3, 250} {
				b[3] = last
				dsts = append(dsts, netip.AddrFrom4(b))
			}
		}
	}
	var froms []*netsim.Host
	for _, isp := range w.ISPList {
		froms = append(froms, isp.Client.Host)
	}
	for _, vp := range w.VPs {
		froms = append(froms, vp.Host)
	}
	paths := func() [][]*netsim.Router {
		var out [][]*netsim.Router
		for _, from := range froms {
			for _, dst := range dsts {
				out = append(out, w.Net.PathHostToAddr(from, dst))
			}
		}
		return out
	}
	memoPaths := paths()

	for _, pp := range w.podPolicies {
		for _, a := range addrs {
			wantNext, wantOK := pp.route(a)
			for pass := 0; pass < 2; pass++ { // memo miss (or a path's entry), then hit
				if next, ok := pp.lookup(a); next != wantNext || ok != wantOK {
					t.Fatalf("pod %s, %v, pass %d: memo = %v,%v; rule scan = %v,%v",
						pp.pod.Name, a, pass, next, ok, wantNext, wantOK)
				}
			}
		}
	}

	for _, pp := range w.podPolicies {
		if a := testing.AllocsPerRun(100, func() { pp.lookup(addrs[0]) }); a != 0 {
			t.Fatalf("pod %s: memo hit allocates %v times", pp.pod.Name, a)
		}
		pp.pod.SetPolicy(pp.route)
	}
	scanPaths := paths()
	for i := range memoPaths {
		if !slices.Equal(memoPaths[i], scanPaths[i]) {
			from, dst := froms[i/len(dsts)], dsts[i%len(dsts)]
			t.Fatalf("%v -> %v: memoized path %v, rule-scan path %v",
				from.Addr(), dst, routerNames(memoPaths[i]), routerNames(scanPaths[i]))
		}
	}
}
