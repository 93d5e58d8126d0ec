// Example custom_scenario builds a world the paper never measured, purely
// through the public scenario API: two ISPs — a wiretap censor with its
// own notification page, and a clean ISP reaching the web through that
// censor's transit (so it inherits collateral blocking) — then runs a
// campaign over both and aggregates the verdicts.
//
// The spec types are declared in package repro/scenario and re-exported
// by censor under the same names, so the literal below needs no second
// import; the mechanism names are scenario's constants.
//
// The same spec works as JSON (the program prints it): save it to a file
// and run `censorscan -scenario world.json -measure http -format summary`.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/censor"
	"repro/scenario"
)

func main() {
	world := censor.Scenario{
		Name:        "two-isp-demo",
		Description: "a wiretap censor and a clean customer riding its transit",
		Seed:        42, PBWSites: 240, AlexaSites: 100, VantagePoints: 8, Pods: 40,
		ISPs: []censor.ISPSpec{
			{
				Name: "FilterNet", Mechanism: scenario.MechanismWiretap,
				Edges: 6, Borders: 8,
				Middleboxes: 6, InboundMiddleboxes: 4,
				Consistency: 0.6, HTTPBlocklist: 120,
				WiretapLossProb: 0.3,
				Notification: censor.NotifSpec{
					Body:         "<html><body>Access denied by FilterNet acceptable-use policy</body></html>",
					MimicHeaders: true,
				},
			},
			{
				Name: "OpenNet", Mechanism: scenario.MechanismNone,
				Edges: 3,
				Transits: []censor.TransitSpec{
					{Provider: "FilterNet", Region: "ALL", Collateral: 40},
				},
			},
		},
	}

	// The spec is plain data: print the JSON an external caller would
	// feed to censorscan -scenario.
	spec, _ := json.MarshalIndent(world, "", "  ")
	fmt.Printf("scenario spec:\n%s\n\n", spec)

	ctx := context.Background()
	sess, err := censor.NewSession(ctx, censor.WithScenario(world))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stream, err := sess.Run(ctx, censor.Campaign{
		Domains:      sess.PBWDomains()[:80],
		Measurements: []censor.Measurement{censor.HTTP(), censor.DNS()},
	}, censor.WithWorkers(2))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	agg := censor.NewAggregateSink()
	if err := stream.Drain(agg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(agg.Summary())
	fmt.Println()
	fmt.Println("FilterNet blocks its subscribers directly; OpenNet is clean on paper,")
	fmt.Println("but its transit crosses FilterNet's peering middlebox — the same")
	fmt.Println("collateral-damage mechanism the paper measured between Indian ISPs.")
}
