package scenario

import (
	"fmt"
	"slices"
)

// maxISPs bounds the ISP list: the compiler assigns each ISP the
// 23.(10*(i+1)).0.0/16 address block, so ordinal 24 would overflow the
// second octet.
const maxISPs = 24

// maxUsersPerEdge is the synthetic-user seating of one edge: each edge
// hosts one traffic-generator host whose users hold fixed source ports
// 10000..49999.
const maxUsersPerEdge = 40000

// Validate checks the scenario for structural errors without building a
// world: impossible sizings, unknown mechanisms or transit providers,
// calibration outside its domain, worlds whose clients could never reach
// the hosting fabric, and vantages naming no ISP. It returns the first
// error found, naming the offending ISP.
func (s Scenario) Validate() error {
	if len(s.ISPs) == 0 {
		return fmt.Errorf("scenario %q: no ISPs", s.Name)
	}
	if len(s.ISPs) > maxISPs {
		return fmt.Errorf("scenario %q: %d ISPs exceeds the %d the address plan holds", s.Name, len(s.ISPs), maxISPs)
	}
	if s.PBWSites < 1 || s.AlexaSites < 1 {
		return fmt.Errorf("scenario %q: PBWSites and AlexaSites must be ≥ 1 (got %d, %d)", s.Name, s.PBWSites, s.AlexaSites)
	}
	if s.VantagePoints < 1 {
		return fmt.Errorf("scenario %q: VantagePoints must be ≥ 1 (got %d)", s.Name, s.VantagePoints)
	}
	if s.Pods < 4 {
		return fmt.Errorf("scenario %q: Pods must be ≥ 4 to seat the hosting fabric (got %d)", s.Name, s.Pods)
	}
	if s.Pods > 250 {
		return fmt.Errorf("scenario %q: Pods must be ≤ 250, one /16 per pod (got %d)", s.Name, s.Pods)
	}
	byName := make(map[string]*ISPSpec, len(s.ISPs))
	for i := range s.ISPs {
		isp := &s.ISPs[i]
		if isp.Name == "" {
			return fmt.Errorf("scenario %q: ISP %d has no name", s.Name, i)
		}
		if _, dup := byName[isp.Name]; dup {
			return fmt.Errorf("scenario %q: duplicate ISP %q", s.Name, isp.Name)
		}
		byName[isp.Name] = isp
	}
	for i := range s.ISPs {
		if err := s.validateISP(&s.ISPs[i], byName); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	for _, v := range s.Vantages {
		if byName[v] == nil {
			return fmt.Errorf("scenario %q: vantage %q names no ISP", s.Name, v)
		}
	}
	return nil
}

func (s Scenario) validateISP(isp *ISPSpec, byName map[string]*ISPSpec) error {
	if isp.Mechanism != "" && !slices.Contains(mechanisms, isp.Mechanism) {
		return fmt.Errorf("ISP %q: unknown mechanism %q (one of: %v)", isp.Name, isp.Mechanism, mechanisms)
	}
	for _, n := range []struct {
		what string
		v    int
	}{
		{"edges", isp.Edges}, {"borders", isp.Borders},
		{"middleboxes", isp.Middleboxes}, {"inbound_middleboxes", isp.InboundMiddleboxes},
		{"http_blocklist", isp.HTTPBlocklist}, {"resolvers", isp.Resolvers},
		{"poisoned_resolvers", isp.PoisonedResolvers}, {"dns_blocklist", isp.DNSBlocklist},
		{"client_resolver_poison", isp.ClientResolverPoison},
	} {
		if n.v < 0 {
			return fmt.Errorf("ISP %q: negative %s (%d)", isp.Name, n.what, n.v)
		}
	}
	if isp.Edges < 1 {
		return fmt.Errorf("ISP %q: edges must be ≥ 1, the measurement client lives on one", isp.Name)
	}
	if isp.Consistency < 0 || isp.Consistency > 1 {
		return fmt.Errorf("ISP %q: consistency %v outside [0,1]", isp.Name, isp.Consistency)
	}
	if isp.DNSConsistency < 0 || isp.DNSConsistency > 1 {
		return fmt.Errorf("ISP %q: dns_consistency %v outside [0,1]", isp.Name, isp.DNSConsistency)
	}
	if isp.WiretapLossProb < 0 || isp.WiretapLossProb > 1 {
		return fmt.Errorf("ISP %q: wiretap_loss_prob %v outside [0,1]", isp.Name, isp.WiretapLossProb)
	}

	// Calibration set for a mechanism that never reads it is rejected, not
	// ignored: a spec author who writes wiretap_loss_prob on an
	// interceptive ISP believes in an evasion window that will not exist.
	if isp.filtersHTTP() {
		if isp.Middleboxes < 1 {
			return fmt.Errorf("ISP %q: mechanism %s needs middleboxes ≥ 1", isp.Name, isp.Mechanism)
		}
		if isp.Borders < 1 {
			return fmt.Errorf("ISP %q: middleboxes deploy on borders; borders must be ≥ 1", isp.Name)
		}
		if isp.HTTPBlocklist < 1 {
			return fmt.Errorf("ISP %q: mechanism %s needs http_blocklist ≥ 1", isp.Name, isp.Mechanism)
		}
	} else if isp.Middleboxes > 0 || isp.HTTPBlocklist > 0 || isp.Consistency != 0 {
		return fmt.Errorf("ISP %q: middleboxes/http_blocklist/consistency set but mechanism is %q", isp.Name, isp.Mechanism)
	}
	if isp.Mechanism != MechanismWiretap && isp.WiretapLossProb != 0 {
		return fmt.Errorf("ISP %q: wiretap_loss_prob set but mechanism is %q — only wiretap boxes race", isp.Name, isp.Mechanism)
	}
	if isp.InboundMiddleboxes > isp.Middleboxes {
		return fmt.Errorf("ISP %q: inbound_middleboxes %d exceeds middleboxes %d", isp.Name, isp.InboundMiddleboxes, isp.Middleboxes)
	}

	if isp.Mechanism == MechanismDNSPoisoning {
		if isp.Resolvers < 1 || isp.PoisonedResolvers < 1 {
			return fmt.Errorf("ISP %q: dns-poisoning needs resolvers ≥ 1 and poisoned_resolvers ≥ 1", isp.Name)
		}
		if isp.DNSBlocklist < 1 {
			return fmt.Errorf("ISP %q: dns-poisoning needs dns_blocklist ≥ 1", isp.Name)
		}
	} else if isp.PoisonedResolvers > 0 || isp.DNSBlocklist > 0 || isp.DNSConsistency != 0 || isp.ClientResolverPoison > 0 {
		return fmt.Errorf("ISP %q: poisoned_resolvers/dns_blocklist/dns_consistency/client_resolver_poison set but mechanism is %q", isp.Name, isp.Mechanism)
	}
	if isp.PoisonedResolvers > isp.Resolvers {
		return fmt.Errorf("ISP %q: poisoned_resolvers %d exceeds resolvers %d", isp.Name, isp.PoisonedResolvers, isp.Resolvers)
	}

	pop := isp.Population
	if pop.Users < 0 || pop.ThinkMS < 0 {
		return fmt.Errorf("ISP %q: negative population users/think_ms (%d/%d)", isp.Name, pop.Users, pop.ThinkMS)
	}
	if pop.DNS < 0 || pop.HTTP < 0 || pop.HTTPS < 0 || pop.Zipf < 0 {
		return fmt.Errorf("ISP %q: negative population mix weight or zipf exponent", isp.Name)
	}
	if pop.Users == 0 && pop != (PopulationSpec{}) {
		return fmt.Errorf("ISP %q: population calibration set but users is 0", isp.Name)
	}
	if pop.Users > maxUsersPerEdge*isp.Edges {
		return fmt.Errorf("ISP %q: population %d exceeds %d users the %d edge(s) can seat (%d ports each)",
			isp.Name, pop.Users, maxUsersPerEdge*isp.Edges, isp.Edges, maxUsersPerEdge)
	}
	if isp.FlowCapacity < 0 {
		return fmt.Errorf("ISP %q: negative flow_capacity (%d)", isp.Name, isp.FlowCapacity)
	}
	if isp.FlowCapacity > 0 && !s.RunsFlowTables(isp) {
		return fmt.Errorf("ISP %q: flow_capacity set but the ISP deploys no middleboxes (mechanism %q, not a transit provider)", isp.Name, isp.Mechanism)
	}

	coversUS, coversEU := isp.Borders > 0, isp.Borders > 0
	for _, t := range isp.Transits {
		p, ok := byName[t.Provider]
		if !ok {
			return fmt.Errorf("ISP %q: unknown transit provider %q", isp.Name, t.Provider)
		}
		if t.Provider == isp.Name {
			return fmt.Errorf("ISP %q: transits through itself", isp.Name)
		}
		if p.Borders < 1 {
			return fmt.Errorf("ISP %q: transit provider %q has no borders, so return traffic would bypass the peering link", isp.Name, t.Provider)
		}
		if t.Collateral < 1 {
			return fmt.Errorf("ISP %q: transit via %q needs collateral ≥ 1", isp.Name, t.Provider)
		}
		switch t.Region {
		case "ALL":
			coversUS, coversEU = true, true
		case "US":
			coversUS = true
		case "EU":
			coversEU = true
		default:
			return fmt.Errorf("ISP %q: transit region %q (want US, EU or ALL)", isp.Name, t.Region)
		}
	}
	if !coversUS || !coversEU {
		return fmt.Errorf("ISP %q: no route to every hosting region — needs borders or transit coverage of US and EU", isp.Name)
	}
	return nil
}
