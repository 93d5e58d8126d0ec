// Package scenario is the declarative world schema: a Scenario is a
// JSON-serializable description of one simulated Internet — global sizing
// plus one ISPSpec per network operator — and Validate reports its
// structural errors before any world is built.
//
// The schema is declared here and nowhere else. The censor package
// re-exports these types under the same names (censor.Scenario is this
// Scenario) and resolves presets through its registry; the internal
// compiler lowers a validated spec to the packet-level world. This
// package imports nothing from the rest of the module, so both can depend
// on it.
//
//repolint:public
package scenario

// Mechanism names: the accepted ISPSpec.Mechanism values, in the order of
// the compiler's censor kinds. An empty Mechanism means MechanismNone.
const (
	MechanismNone               = "none"
	MechanismWiretap            = "wiretap"
	MechanismInterceptiveOvert  = "interceptive-overt"
	MechanismInterceptiveCovert = "interceptive-covert"
	MechanismDNSPoisoning       = "dns-poisoning"
)

// mechanisms lists the mechanism names for error messages.
var mechanisms = []string{
	MechanismNone, MechanismWiretap, MechanismInterceptiveOvert,
	MechanismInterceptiveCovert, MechanismDNSPoisoning,
}

// A Scenario is a declarative, JSON-serializable description of one
// simulated Internet: global sizing plus one ISPSpec per network operator.
// The paper's calibration is just one Scenario (censor's "paper-2018"
// preset), and callers can write their own specs in Go or JSON:
//
//	raw, _ := os.ReadFile("world.json")
//	var sc censor.Scenario
//	json.Unmarshal(raw, &sc)
//	sess, err := censor.NewSession(ctx, censor.WithScenario(sc))
//
// Addressing and AS numbers are assigned by the compiler from ISP order;
// a spec carries only behaviour.
type Scenario struct {
	// Name identifies the scenario (registry key for presets).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`

	// Seed drives every random draw of the simulation; same seed, same
	// world, same measurements.
	Seed int64 `json:"seed"`
	// PBWSites sizes the potentially-blocked-website population (the
	// paper measured 1200); blocklist sizes scale against a 1200
	// baseline.
	PBWSites int `json:"pbw_sites"`
	// AlexaSites sizes the popular-destination population used as scan
	// targets and controls.
	AlexaSites int `json:"alexa_sites"`
	// VantagePoints is the number of outside (PlanetLab-style) vantage
	// points spread across the hosting fabric.
	VantagePoints int `json:"vantage_points"`
	// Pods is the number of global web-hosting pods (first half US,
	// second half EU). The paper world uses 80; the minimum is 4.
	Pods int `json:"pods"`

	// ISPs are the network operators, in order (order fixes addressing).
	ISPs []ISPSpec `json:"isps"`

	// Vantages optionally names the default campaign vantage set, in
	// order. Empty means every ISP in the scenario. censor.WithVantages
	// still overrides per session or per run.
	Vantages []string `json:"vantages,omitempty"`
}

// ISPSpec describes one network operator: topology sizing, the censorship
// mechanism it runs, and the mechanism's calibration. Zero values mean
// "none of that": no middleboxes, no resolvers, no transits.
type ISPSpec struct {
	Name string `json:"name"`
	// Mechanism is the censorship the ISP operates itself: one of the
	// Mechanism* names. Empty means MechanismNone.
	Mechanism string `json:"mechanism"`

	// Edges is the number of access/aggregation units (each a /24 of
	// subscribers); the measurement client lives on the first. Minimum 1.
	Edges int `json:"edges"`
	// Borders is the number of egress units peering with the hosting
	// pods; 0 makes the ISP a transit customer (Transits required).
	Borders int `json:"borders,omitempty"`

	// Middleboxes deploys that many filtering boxes across the borders
	// (mechanisms wiretap / interceptive-*).
	Middleboxes int `json:"middleboxes,omitempty"`
	// InboundMiddleboxes is the subset also inspecting traffic addressed
	// to the ISP, making them visible to outside probes (Table 2's
	// within/outside coverage gap; 0 reproduces the Jio anomaly).
	InboundMiddleboxes int `json:"inbound_middleboxes,omitempty"`
	// Consistency is the per-URL share of boxes carrying each blocklist
	// entry, in [0,1] (Figure 5).
	Consistency float64 `json:"consistency,omitempty"`
	// HTTPBlocklist is the size of the ISP's HTTP blocklist.
	HTTPBlocklist int `json:"http_blocklist,omitempty"`
	// WiretapLossProb is the probability a wiretap box loses the
	// injection race, in [0,1] (the paper observed ~3 in 10).
	WiretapLossProb float64 `json:"wiretap_loss_prob,omitempty"`
	// Notification styles the forged censorship response; also used for
	// boxes this ISP operates on customer peering links.
	Notification NotifSpec `json:"notification,omitempty"`

	// Resolvers sizes the ISP's recursive resolver fleet (any mechanism
	// may run an honest fleet).
	Resolvers int `json:"resolvers,omitempty"`
	// PoisonedResolvers is how many of them answer censored domains with
	// a block host or bogon (mechanism dns-poisoning).
	PoisonedResolvers int `json:"poisoned_resolvers,omitempty"`
	// DNSBlocklist is the size of the DNS blocklist.
	DNSBlocklist int `json:"dns_blocklist,omitempty"`
	// DNSConsistency is the per-domain share of poisoned resolvers
	// carrying each entry, in [0,1] (Figure 2).
	DNSConsistency float64 `json:"dns_consistency,omitempty"`
	// ClientResolverPoison caps the poison list of the subscriber-default
	// resolver.
	ClientResolverPoison int `json:"client_resolver_poison,omitempty"`

	// Population adds synthetic background users whose DNS/HTTP/HTTPS
	// traffic shares the links and middlebox flow tables the campaign
	// measures. Zero value means an idle ISP.
	Population PopulationSpec `json:"population,omitempty"`
	// FlowCapacity bounds each of this ISP's middlebox flow tables
	// (including boxes it deploys on customer peering links); it may be
	// set only where RunsFlowTables holds. At capacity the coldest live
	// flow is evicted, so under population load the box can lose a
	// connection's handshake state — an eviction-induced censorship
	// miss. 0 keeps the generous default (65536).
	FlowCapacity int `json:"flow_capacity,omitempty"`

	// Transits wire the ISP to upstream providers per hosting region; the
	// provider's middlebox on each peering link is the collateral-damage
	// mechanism of Table 3.
	Transits []TransitSpec `json:"transits,omitempty"`
}

// PopulationSpec describes one ISP's synthetic background users. Users
// browse a Zipf-ranked site list with exponential think times, mixing DNS
// lookups, HTTP page fetches and HTTPS handshakes by weight.
type PopulationSpec struct {
	// Users is the number of concurrent synthetic users (0 = none). Each
	// ISP edge seats up to 40000.
	Users int `json:"users,omitempty"`
	// DNS, HTTP and HTTPS are relative request-mix weights; all zero
	// means pure HTTP.
	DNS   float64 `json:"dns,omitempty"`
	HTTP  float64 `json:"http,omitempty"`
	HTTPS float64 `json:"https,omitempty"`
	// ThinkMS is the mean think time between one user's page visits in
	// milliseconds (default 3000).
	ThinkMS int `json:"think_ms,omitempty"`
	// Zipf is the popularity exponent over the ranked site list (default
	// 1.1; larger concentrates traffic on popular sites).
	Zipf float64 `json:"zipf,omitempty"`
}

// NotifSpec is the censorship-notification style of an ISP's middleboxes:
// the forged response body and the wire-level signatures the paper used
// for attribution (§6.1). The zero value is an anonymous default style.
type NotifSpec struct {
	// Body is the notification HTML; empty plus Covert means a bare RST.
	Body string `json:"body,omitempty"`
	// MimicHeaders copies a typical origin server's header names onto the
	// forged response — the property that blinds OONI's header check.
	MimicHeaders bool `json:"mimic_headers,omitempty"`
	// IPID pins the IP identification field of injected packets (Airtel's
	// boxes always use 242).
	IPID uint16 `json:"ipid,omitempty"`
	// Covert marks a style that sends only a RST, no notification page.
	Covert bool `json:"covert,omitempty"`
}

// TransitSpec routes one hosting region of a customer ISP through a
// provider, whose peering-link middlebox carries Collateral blocklist
// entries.
type TransitSpec struct {
	// Provider names another ISP in the same scenario (Borders ≥ 1).
	Provider string `json:"provider"`
	// Region is "US", "EU" or "ALL" (single-homed customers).
	Region string `json:"region"`
	// Collateral is the size of the provider's blocklist on this link.
	Collateral int `json:"collateral"`
}

// Clone returns a deep copy, so callers can tweak a preset without
// mutating the registry's.
func (s Scenario) Clone() Scenario {
	out := s
	out.ISPs = make([]ISPSpec, len(s.ISPs))
	for i, isp := range s.ISPs {
		out.ISPs[i] = isp
		out.ISPs[i].Transits = append([]TransitSpec(nil), isp.Transits...)
	}
	out.Vantages = append([]string(nil), s.Vantages...)
	return out
}

// RunsFlowTables reports whether the ISP operates middlebox flow tables:
// it filters HTTP with its own middleboxes, or it is some ISP's transit
// provider (a provider always deploys a box on the customer peering
// link). These are the ISPs FlowCapacity applies to.
func (s Scenario) RunsFlowTables(isp *ISPSpec) bool {
	if isp.filtersHTTP() {
		return true
	}
	for i := range s.ISPs {
		for _, t := range s.ISPs[i].Transits {
			if t.Provider == isp.Name {
				return true
			}
		}
	}
	return false
}

// filtersHTTP reports whether the ISP's own mechanism deploys HTTP
// middleboxes.
func (isp *ISPSpec) filtersHTTP() bool {
	switch isp.Mechanism {
	case MechanismWiretap, MechanismInterceptiveOvert, MechanismInterceptiveCovert:
		return true
	}
	return false
}
