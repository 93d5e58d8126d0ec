// Observatory: drive the monitor layer in-process, no HTTP — a Store
// fed by a Scheduler, then the query surface censord serves: run
// summaries straight from write-time roll-ups, filtered raw results
// from the bounded rings, and the blocked-domain churn between two runs
// (the longitudinal view the paper's one-shot campaigns could not take).
package main

import (
	"context"
	"fmt"
	"os"

	"repro/censor"
	"repro/monitor"
)

func main() {
	ctx := context.Background()

	// The store bounds memory on both axes: raw results per
	// (scenario, vantage, measurement) ring, roll-ups per retained run.
	store := monitor.NewStore(monitor.WithRingSize(256), monitor.WithRunRetention(16))

	// One on-demand job (Every: 0). A real deployment sets Every/Jitter
	// and hands sched.Run(ctx) a long-lived context; here we fire runs by
	// hand to keep the output deterministic.
	sched, err := monitor.NewScheduler(ctx, store, monitor.Job{
		Name:     "survey",
		Scenario: censor.MustLookupScenario("small"),
		Campaign: censor.Campaign{
			Measurements: []censor.Measurement{censor.DNS(), censor.HTTP()},
		},
		DomainCap: 40,
		Workers:   4,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "observatory: %v\n", err)
		os.Exit(1)
	}

	// Epoch 1: the scheduler runs the campaign on its pooled session and
	// ingests the stream into the store.
	first, err := sched.RunOnce(ctx, "survey")
	if err != nil {
		fmt.Fprintf(os.Stderr, "observatory: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("run %d: %d results, %d blocked\n\n", first.Run, first.Results, first.Blocked)

	// Summaries never scan raw results — they are folded at write time,
	// with the exact rendering a drained censor.AggregateSink produces.
	if text, ok := store.SummaryText(first.Run); ok {
		fmt.Print(text)
	}

	// Epoch 2: in a live deployment the world (and its blocklists) would
	// have moved between firings; here we push a synthetic follow-up run
	// in which one domain was unblocked and another newly blocked, the
	// shape a real blocklist update leaves behind.
	var churned []censor.Result
	seen := false
	for _, r := range store.Results(monitor.Query{Run: first.Run, Vantage: "Idea", Measurement: "http"}) {
		res := r.Result
		if res.Blocked && !seen {
			res.Blocked = false // the censor dropped this entry...
			res.Mechanism = ""
			res.Censor = ""
			seen = true
		}
		churned = append(churned, res)
	}
	churned = append(churned, censor.Result{
		Vantage: "Idea", Measurement: "http", Domain: "newly-listed.example",
		Blocked: true, Mechanism: censor.MechanismNotification, Censor: "Idea",
	})
	sink := store.Begin("small", "replay")
	if err := sink.WriteBatch(churned); err != nil {
		fmt.Fprintf(os.Stderr, "observatory: %v\n", err)
		os.Exit(1)
	}
	if err := sink.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "observatory: %v\n", err)
		os.Exit(1)
	}

	// Delta-since-run: per-vantage blocked-domain churn between epochs.
	delta, err := store.DeltaSince(first.Run, sink.Run())
	if err != nil {
		fmt.Fprintf(os.Stderr, "observatory: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nblocklist churn, run %d -> run %d:\n", delta.From, delta.To)
	for _, vd := range delta.Vantages {
		if vd.Vantage != "Idea" {
			continue // other vantages differ only because run 2 replayed Idea alone
		}
		fmt.Printf("  %-8s added=%v removed=%v\n", vd.Vantage, vd.Added, vd.Removed)
	}

	// The raw rings answer targeted queries: the latest blocked verdicts.
	fmt.Println("\nlatest blocked verdicts at Idea:")
	for _, r := range store.Results(monitor.Query{Vantage: "Idea", BlockedOnly: true, Latest: 3}) {
		fmt.Printf("  run %d  %-24s %s\n", r.Run, r.Domain, r.Mechanism)
	}
}
