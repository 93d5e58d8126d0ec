// Quickstart: build the simulated Indian Internet, run a small censorship
// campaign through the public censor API — the paper's HTTP detection
// pipeline from one ISP vantage — and stream the uniform results as they
// arrive.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/censor"
)

func main() {
	ctx := context.Background()

	// Worlds are built from scenario specs; "small" is the paper's world
	// at reduced scale ("paper-2018" is the full 1200-site population,
	// and censor.Scenarios() lists every other preset). Custom worlds are
	// plain censor.Scenario values — see examples/custom_scenario.
	sess, err := censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario("small")))
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("world: %v\n\n", sess.World().Net)

	fmt.Println("Scanning the first 25 potentially blocked websites from inside Idea:")
	stream, err := sess.Run(ctx, censor.Campaign{
		Domains:      sess.PBWDomains()[:25],
		Measurements: []censor.Measurement{censor.HTTP()},
	}, censor.WithVantages("Idea"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	blocked := 0
	for res, err := range stream.All() {
		if err != nil {
			fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
			os.Exit(1)
		}
		switch {
		case res.Blocked && res.Mechanism == censor.MechanismNotification:
			fmt.Printf("  BLOCKED   %-28s (notification from %s)\n", res.Domain, res.Censor)
			blocked++
		case res.Blocked:
			fmt.Printf("  BLOCKED   %-28s (%s)\n", res.Domain, res.Mechanism)
			blocked++
		case res.Diff >= censor.DiffThreshold:
			fmt.Printf("  suspect   %-28s (diff %.2f, cleared by manual check)\n", res.Domain, res.Diff)
		default:
			fmt.Printf("  ok        %-28s (diff %.2f)\n", res.Domain, res.Diff)
		}
	}
	fmt.Printf("\n%d of 25 confirmed blocked.\n", blocked)

	// The same vantage never sees TCP/IP filtering — like the paper.
	results, err := sess.Measure(ctx, "Idea", censor.TCP(), sess.PBWDomains()[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	if !results[0].Blocked {
		fmt.Println("TCP/IP filtering: none detected (matches §3.3).")
	} else {
		fmt.Println("TCP/IP filtering detected — unexpected for this world.")
	}

	// Campaigns also stream into pluggable sinks. Detectors resolve by
	// name from the registry (censor.Names() lists all of them, including
	// any you censor.Register yourself), and the aggregate sink folds the
	// stream into the paper's summary shapes.
	dns, _ := censor.Lookup("dns")
	http, _ := censor.Lookup("http")
	stream, err = sess.Run(ctx, censor.Campaign{
		Domains:      sess.PBWDomains()[:25],
		Measurements: []censor.Measurement{dns, http},
	}, censor.WithVantages("MTNL", "Idea"), censor.WithWorkers(4))
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	agg := censor.NewAggregateSink()
	if err := stream.Drain(agg); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(agg.Summary())
}
