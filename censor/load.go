package censor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ApplyLoad overlays a background-load directive onto a scenario and
// returns the loaded copy. The directive is a comma-separated list of
// key=value settings:
//
//	users=N      total synthetic users, apportioned across the scenario's
//	             ISPs proportionally to their edge counts (users=0 strips
//	             every population)
//	think=D      mean think time between page visits (Go duration, e.g.
//	             2s or 1500ms; default 2s)
//	zipf=F       popularity exponent over the ranked site list (default 1.1)
//	dns=F        request-mix weights (defaults 0.1 / 0.8 / 0.1); weights
//	http=F       are relative, any subset may be given
//	https=F
//	capacity=K   bound the middlebox flow tables of every ISP that runs
//	             them (Scenario.RunsFlowTables: HTTP censors and transit
//	             providers) at K entries (0 leaves tables at the default)
//
// "users=10000" alone reproduces the paper calibration under load;
// "users=10000,capacity=2048" adds the flow-table pressure that makes
// eviction-induced censorship misses observable. The input scenario is
// never mutated; the result is re-validated before it is returned.
func ApplyLoad(sc Scenario, directive string) (Scenario, error) {
	users := -1
	think := 2 * time.Second
	zipf := 1.1
	dnsW, httpW, httpsW := 0.1, 0.8, 0.1
	capacity := 0

	for _, part := range strings.Split(directive, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Scenario{}, fmt.Errorf("load directive %q: want key=value", part)
		}
		var err error
		switch key {
		case "users":
			users, err = strconv.Atoi(val)
			if err == nil && users < 0 {
				err = fmt.Errorf("negative")
			}
		case "think":
			think, err = time.ParseDuration(val)
			if err == nil && think <= 0 {
				err = fmt.Errorf("non-positive")
			}
		case "zipf":
			zipf, err = strconv.ParseFloat(val, 64)
		case "dns":
			dnsW, err = strconv.ParseFloat(val, 64)
		case "http":
			httpW, err = strconv.ParseFloat(val, 64)
		case "https":
			httpsW, err = strconv.ParseFloat(val, 64)
		case "capacity":
			capacity, err = strconv.Atoi(val)
			if err == nil && capacity < 0 {
				err = fmt.Errorf("negative")
			}
		default:
			return Scenario{}, fmt.Errorf("load directive: unknown key %q (users, think, zipf, dns, http, https, capacity)", key)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("load directive %q: %v", part, err)
		}
	}
	if users < 0 {
		return Scenario{}, fmt.Errorf("load directive %q: users=N is required", directive)
	}

	out := sc.Clone()
	if users == 0 {
		for i := range out.ISPs {
			out.ISPs[i].Population = PopulationSpec{}
		}
	} else {
		apportionUsers(out.ISPs, users, think, zipf, dnsW, httpW, httpsW)
	}
	if capacity > 0 {
		for i := range out.ISPs {
			if out.RunsFlowTables(&out.ISPs[i]) {
				out.ISPs[i].FlowCapacity = capacity
			}
		}
	}
	if err := out.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("load directive %q: %w", directive, err)
	}
	return out, nil
}

// apportionUsers distributes the total proportionally to each ISP's edge
// count by largest remainder, so every user is seated and the split is
// deterministic.
func apportionUsers(isps []ISPSpec, total int, think time.Duration, zipf, dnsW, httpW, httpsW float64) {
	edges := 0
	for i := range isps {
		edges += isps[i].Edges
	}
	if edges == 0 {
		return
	}
	type slot struct {
		idx   int
		count int
		rem   int
	}
	slots := make([]slot, len(isps))
	seated := 0
	for i := range isps {
		share := total * isps[i].Edges
		slots[i] = slot{idx: i, count: share / edges, rem: share % edges}
		seated += slots[i].count
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].rem > slots[b].rem })
	for i := 0; seated < total; i++ {
		slots[i%len(slots)].count++
		seated++
	}
	for _, s := range slots {
		isp := &isps[s.idx]
		if s.count == 0 {
			isp.Population = PopulationSpec{}
			continue
		}
		isp.Population = PopulationSpec{
			Users: s.count,
			DNS:   dnsW, HTTP: httpW, HTTPS: httpsW,
			ThinkMS: int(think / time.Millisecond),
			Zipf:    zipf,
		}
	}
}
