package ispnet

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/websim"
	"repro/obs"
)

// findEvictionTarget picks a blocklisted, genuinely-hosted domain whose
// path from the ISP's client crosses a middlebox carrying it: the flow a
// dallying fetch drives through that box's bounded table.
func findEvictionTarget(t *testing.T, w *World, ispName string) (string, netip.Addr, *BoxRef) {
	t.Helper()
	isp := w.ISP(ispName)
	pb := w.podBorders[ispName]
	for _, d := range isp.HTTPList {
		site, ok := w.Catalog.Site(d)
		if !ok || (site.Kind != websim.KindNormal && site.Kind != websim.KindDynamic) {
			continue
		}
		addr := site.Addr(websim.RegionIN)
		if !addr.IsValid() || addr.As4()[0] != 199 {
			continue
		}
		br := pb[int(addr.As4()[1])]
		if br == nil {
			continue
		}
		for _, b := range w.BoxesAt(br) {
			if b.Owner == ispName && b.List.Contains(d) {
				return d, addr, b
			}
		}
	}
	t.Fatalf("no covered blocklisted domain found for %s", ispName)
	return "", netip.Addr{}, nil
}

// dallyFetch opens a connection, idles long enough for background load to
// turn the on-path flow table over, then sends the blocklisted GET.
func dallyFetch(w *World, domain string, addr netip.Addr, dally time.Duration) ([]byte, bool) {
	client := w.ISP("Idea").Client
	w.Eng.RunFor(time.Second)
	conn := client.TCP.Connect(addr, 80)
	if err := conn.WaitEstablished(5 * time.Second); err != nil {
		return nil, false
	}
	w.Eng.RunFor(dally)
	conn.Send(httpwire.StandardGET(domain, "/"))
	stream := conn.WaitQuiet(3 * time.Second)
	_, reset := conn.WasReset()
	return stream, reset
}

// TestLoadDependentEvictionMiss is the tentpole's acceptance property: on
// paper-2018-loaded (11k background users, 2048-entry flow tables), a
// connection that idles between handshake and request gets its flow state
// evicted by background churn, so the blocklisted GET sails past the
// censor — a miss the idle world never shows. The effect is deterministic:
// a reset world reproduces it byte-for-byte.
func TestLoadDependentEvictionMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale loaded world (minutes of virtual time)")
	}
	// Background flows cross the chosen border at ~40-50/s, so the
	// 2048-entry table fills within ~50s of virtual time; dallying 80s
	// leaves comfortable margin for the dallying flow to reach the LRU
	// head and be displaced.
	const dally = 80 * time.Second

	loaded := NewWorld(mustCompile(LoadedScenario()))
	if loaded.Traffic == nil || loaded.Traffic.Users() < 10000 {
		t.Fatalf("loaded world seats %v users, want >= 10000", loaded.Traffic)
	}
	domain, addr, box := findEvictionTarget(t, loaded, "Idea")

	var marker string
	for _, sig := range loaded.NotifSignatures() {
		if sig.ISP == "Idea" {
			marker = sig.Marker
		}
	}
	if marker == "" {
		t.Fatalf("no Idea notification signature")
	}

	// Idle control: the same calibration with the populations stripped
	// (bounded tables kept). The flow entry survives the dally untouched
	// and the GET is censored.
	idleSpec := LoadedScenario()
	for i := range idleSpec.ISPs {
		idleSpec.ISPs[i].Population = PopulationSpec{}
	}
	idle := NewWorld(mustCompile(idleSpec))
	idleStream, idleReset := dallyFetch(idle, domain, addr, dally)
	if !strings.Contains(string(idleStream), marker) {
		t.Fatalf("idle world: dallying fetch of %s was not censored (reset=%v, stream=%q)",
			domain, idleReset, truncate(idleStream))
	}

	// Loaded world: background churn evicts the dallying flow, the box no
	// longer recognizes the connection, and the real page comes back.
	stream, reset := dallyFetch(loaded, domain, addr, dally)
	evicted := loaded.Obs().Counter(obs.Name("middlebox_flow_evictions_total", "box", box.ID))
	occupancy := loaded.Obs().Gauge(obs.Name("middlebox_flow_occupancy", "box", box.ID))
	evictions := evicted.Value()
	if evictions == 0 {
		t.Fatalf("background load drove no evictions through %s (len %d)", box.ID, occupancy.Value())
	}
	if strings.Contains(string(stream), marker) {
		t.Fatalf("loaded world: censor still triggered on %s despite churn (evictions %d)", domain, evictions)
	}
	if !strings.Contains(string(stream), " 200 ") {
		t.Fatalf("loaded world: no real response for %s (reset=%v, stream=%q)", domain, reset, truncate(stream))
	}

	// Determinism: a reset world reproduces the miss byte-for-byte,
	// eviction counter included — the campaign replica-pooling contract
	// under load.
	loaded.Reset()
	stream2, _ := dallyFetch(loaded, domain, addr, dally)
	if !bytes.Equal(stream, stream2) {
		t.Fatalf("reset world diverged: %d vs %d stream bytes", len(stream), len(stream2))
	}
	if e2 := evicted.Value(); e2 != evictions {
		t.Fatalf("reset world eviction count diverged: %d vs %d", evictions, e2)
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// TestLoadedScenarioCompiles pins the preset's shape: it validates, seats
// at least 10k users, and bounds every censoring ISP's flow tables.
func TestLoadedScenarioCompiles(t *testing.T) {
	s := LoadedScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("LoadedScenario invalid: %v", err)
	}
	cfg := mustCompile(s)
	total := 0
	for _, p := range cfg.Profiles {
		total += p.Population.Users
		if p.HTTPCensoring() && p.FlowCapacity == 0 {
			t.Errorf("%s censors HTTP but keeps an unbounded flow table", p.Name)
		}
	}
	if total < 10000 {
		t.Fatalf("loaded scenario seats %d users, want >= 10000", total)
	}
}
