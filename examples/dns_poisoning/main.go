// DNS poisoning survey: reproduces §3.2/§4.1 for the two state-run ISPs —
// discover every open resolver by scanning the ISPs' address space, query
// all potentially blocked websites through each, apply the paper's
// manipulation heuristics, and print the Figure 2 coverage/consistency
// metrics plus the tracer proof that this is poisoning, not injection.
// A closing campaign runs the uniform per-domain DNS detector from both
// vantages in parallel for the JSONL-shaped view of the same censorship.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/censor"
	"repro/internal/probe"
)

func main() {
	ctx := context.Background()
	sess, err := censor.NewSession(ctx,
		censor.WithScenario(censor.MustLookupScenario("small")), censor.WithVantages("MTNL", "BSNL"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dns_poisoning: %v\n", err)
		os.Exit(1)
	}
	w := sess.World()

	for _, name := range []string{"MTNL", "BSNL"} {
		isp := w.ISP(name)
		v := censor.MustVantage(sess, name)
		p := v.Probe()

		control := w.Catalog.AlexaDomains()[0]
		resolvers := p.DiscoverResolvers(control)
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("  open resolvers discovered: %d\n", len(resolvers))

		scan := p.ScanResolvers(resolvers, w.Catalog.PBWDomains())
		fmt.Printf("  censorious resolvers:      %d (coverage %.1f%%)\n",
			len(scan.BlockedBy), 100*scan.Coverage)
		fmt.Printf("  blocked domains (union):   %d\n", len(scan.BlockedDomains))
		fmt.Printf("  consistency:               %.1f%%\n", 100*scan.Consistency)

		// Poisoning vs injection: the DNS tracer.
		if len(scan.BlockedDomains) > 0 {
			victim := scan.BlockedDomains[0]
			tr := probe.IterativeTraceDNS(isp.Client, isp.DefaultResolver, victim, time.Second)
			fmt.Printf("  tracer: manipulated answer for %s at hop %d/%d", victim, tr.AnswerHop, tr.ResolverHop)
			if tr.Injected {
				fmt.Println("  -> on-path injection")
			} else {
				fmt.Println("  -> resolver poisoning")
			}
		}
		fmt.Println()
	}

	// The same finding through the uniform API: the per-domain DNS
	// detector against each ISP's default resolver, both vantages in
	// parallel, stable output order.
	stream, err := sess.Run(ctx, censor.Campaign{
		Domains:      sess.PBWDomains()[:40],
		Measurements: []censor.Measurement{censor.DNS()},
	}, censor.WithWorkers(2))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dns_poisoning: %v\n", err)
		os.Exit(1)
	}
	poisoned := map[string]int{}
	for res, err := range stream.All() {
		if err != nil {
			fmt.Fprintf(os.Stderr, "dns_poisoning: %v\n", err)
			os.Exit(1)
		}
		if res.Blocked {
			poisoned[res.Vantage]++
		}
	}
	fmt.Printf("campaign over the first 40 PBWs: default resolver poisons %d (MTNL) / %d (BSNL)\n",
		poisoned["MTNL"], poisoned["BSNL"])

	fmt.Println("\nEvasion: any non-poisoned resolver bypasses this entirely (§5);")
	fmt.Println("resolve via the public resolver at the control vantage instead.")
}
