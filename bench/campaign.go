package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/censor"
)

// workers is the campaign worker count, fixed so results do not depend on
// the machine's core count.
const workers = 2

// detectors are the registered detectors, in registry order.
var detectors = censor.Names()

// campaignSpec shapes one campaign workload.
type campaignSpec struct {
	preset  string
	load    string   // censor.ApplyLoad directive; "" for an idle world
	measure []string // detector names; nil runs every registered detector
	domains int      // first N of the seeded domain order; 0 for all
}

// runPaperSweep is the study's full shape: every detector over every PBW
// domain from the nine vantages. Detectors, world reset and the sinks
// (JSON encoding above all) do the work; no background traffic runs.
func runPaperSweep(r *run) (*outcome, error) {
	cs := campaignSpec{preset: "paper-2018"}
	if r.tiny {
		cs = campaignSpec{preset: "small", domains: 4}
	}
	return runCampaign(r, cs)
}

// loadedRegime is the flow-table-pressure regime censor.ApplyLoad documents:
// the paper calibration under load (users=10000) with 2048-entry tables.
// loadedDomains keeps one campaign in that world to a few seconds.
const (
	loadedRegime  = "users=10000,capacity=2048"
	loadedDomains = 2
)

// runLoadedCampaign is stateful censorship under population load: few
// results, but background users keep trafficgen, the engine and the
// middlebox flow tables busy, while the sinks do almost nothing.
func runLoadedCampaign(r *run) (*outcome, error) {
	cs := campaignSpec{preset: "small", load: loadedRegime, measure: []string{"dns", "http"}, domains: loadedDomains}
	if r.tiny {
		cs.load, cs.domains = "users=200,capacity=2048", 2
	}
	return runCampaign(r, cs)
}

// runCampaign sets the session up (world build plus a one-domain warm-up
// that fills the replica pool), then runs the campaign closed loop for the
// run's duration, draining each into a hashed JSONL sink and an aggregate.
// The seed orders the domains; the world keeps the preset's calibrated
// seed, so every seed does the same work. An op is one result; a latency
// sample is one campaign.
func runCampaign(r *run, cs campaignSpec) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	sc := censor.MustLookupScenario(cs.preset)
	if cs.load != "" {
		var err error
		if sc, err = censor.ApplyLoad(sc, cs.load); err != nil {
			return nil, err
		}
	}
	names := cs.measure
	if names == nil {
		names = detectors
	}
	ms := make([]censor.Measurement, len(names))
	for i, n := range names {
		m, ok := censor.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown detector %q", n)
		}
		ms[i] = m
	}

	type state struct {
		sess    *censor.Session
		domains []string
	}
	st, release, err := repeatSetup(r.params, o, func() (state, func(), error) {
		sess, err := censor.NewSession(ctx, censor.WithScenario(sc))
		if err != nil {
			return state{}, nil, err
		}
		domains := sess.PBWDomains()
		if cs.domains > 0 {
			domains = domains[:cs.domains]
		}
		warm, err := sess.Run(ctx, censor.Campaign{Domains: domains[:1], Measurements: ms}, censor.WithWorkers(workers))
		if err != nil {
			return state{}, nil, err
		}
		if _, err := warm.Collect(); err != nil {
			return state{}, nil, fmt.Errorf("warm-up: %w", err)
		}
		return state{sess, seededOrder(domains, r.seed)}, func() {}, nil
	})
	defer release()
	if err != nil {
		return nil, err
	}
	want := len(st.sess.Vantages()) * len(ms) * len(st.domains)

	// The traced pass times every detector and sink from outside; the
	// wrappers leave the output bytes unchanged, which the digest checks.
	runMs := ms
	busy := make([]atomic.Int64, len(ms))
	runOpts := []censor.Option{censor.WithWorkers(workers)}
	if r.traced {
		runMs = make([]censor.Measurement, len(ms))
		for i, m := range ms {
			runMs[i] = timedMeasurement{m, &busy[i]}
		}
		runOpts = append(runOpts, censor.WithTelemetry(r.reg), censor.WithTrace(r.spans))
	}
	camp := censor.Campaign{Domains: st.domains, Measurements: runMs}
	var jsonlBusy, aggBusy, wall time.Duration

	if err := r.begin(); err != nil {
		return nil, err
	}
	for wall < r.seconds || len(o.latencies) < 2 {
		h := sha256.New()
		agg := censor.NewAggregateSink()
		jsonl, aggs := &timedSink{BatchSink: censor.NewJSONLSink(h)}, &timedSink{BatchSink: agg}
		sinks := []censor.Sink{jsonl.BatchSink, aggs.BatchSink}
		if r.traced {
			sinks = []censor.Sink{jsonl, aggs}
		}
		span := r.span("campaign", 100)
		start := time.Now()
		stream, err := st.sess.Run(ctx, camp, runOpts...)
		if err == nil {
			err = stream.Drain(sinks...)
		}
		dt := time.Since(start)
		r.spans.Finish(span)
		if err != nil {
			r.end()
			return nil, err
		}
		jsonlBusy += jsonl.busy
		aggBusy += aggs.busy
		o.latencies = append(o.latencies, dt)
		wall += dt

		n, errs := 0, 0
		for _, v := range agg.Vantages() {
			t := agg.TallyFor(v)
			n, errs = n+t.Total, errs+t.Errors
		}
		o.rates = append(o.rates, float64(n)/dt.Seconds())
		o.ops += n
		o.attempted += n
		o.failed += errs
		if n != want {
			o.problem("campaign delivered %d results, want %d", n, want)
		}
		o.checkDigest(r.params, hex.EncodeToString(h.Sum(nil)))
	}
	r.end()

	if r.traced {
		perOp := func(d time.Duration) float64 { return ratio(us(d), float64(o.ops)) }
		var detTotal time.Duration
		for i, n := range names {
			d := time.Duration(busy[i].Load())
			detTotal += d
			r.layers["censor.detector."+n+"_us_per_op"] = perOp(d)
		}
		var task, merge time.Duration
		for _, s := range r.spans.Spans() {
			switch s.Cat {
			case "task":
				task += time.Duration(s.End - s.Start)
			case "merge":
				merge += time.Duration(s.End - s.Start)
			}
		}
		r.layers["censor.task_us_per_op"] = perOp(task)
		r.layers["censor.merge_wait_us_per_op"] = perOp(merge)
		r.layers["censor.task_overhead_us_per_op"] = perOp(task - detTotal)
		r.layers["censor.replica_builds"] = float64(r.reg.Counter("censor_replica_builds_total").Value())
		r.layers["censor.sink.jsonl_us_per_op"] = perOp(jsonlBusy)
		r.layers["censor.sink.aggregate_us_per_op"] = perOp(aggBusy)
		r.layers["censor.drain_wait_us_per_op"] = perOp(wall - jsonlBusy - aggBusy)
		simLayers(r, float64(o.ops))
	}
	return o, nil
}

// seededOrder returns domains in an order drawn from seed; seed 0 keeps
// the catalog order.
func seededOrder(domains []string, seed int64) []string {
	out := append([]string(nil), domains...)
	if seed != 0 {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// timedMeasurement sums the wall time a detector spends in Measure.
// Campaign workers share it, hence the atomic.
type timedMeasurement struct {
	censor.Measurement
	busy *atomic.Int64
}

func (m timedMeasurement) Measure(ctx context.Context, v *censor.Vantage, domain string) censor.Result {
	start := time.Now()
	res := m.Measurement.Measure(ctx, v, domain)
	m.busy.Add(int64(time.Since(start)))
	return res
}

// timedSink sums the wall time a sink spends consuming results. Drain
// hands every batch of a BatchSink to WriteBatch, from one goroutine.
type timedSink struct {
	censor.BatchSink
	busy time.Duration
}

func (s *timedSink) WriteBatch(rs []censor.Result) error {
	start := time.Now()
	err := s.BatchSink.WriteBatch(rs)
	s.busy += time.Since(start)
	return err
}

// simLayers records the simulation's world counters, merged into r.reg,
// per op: engine events, forwarded packets, packet-pool hits, middlebox
// triggers, lost races and flow-table evictions, background flows.
func simLayers(r *run, ops float64) {
	sum := func(prefix string) float64 { return sumPrefix(r.reg, prefix) }
	r.layers["sim.events_per_op"] = ratio(sum("sim_events_run_total"), ops)
	r.layers["netsim.packets_per_op"] = ratio(sum("netsim_packets_forwarded_total"), ops)
	r.layers["netsim.pool_hit_ratio"] = ratio(sum("netsim_pool_hits_total"), sum("netsim_pool_gets_total"))
	r.layers["middlebox.triggers_per_op"] = ratio(sum("middlebox_triggers_total{"), ops)
	r.layers["middlebox.lost_race_ratio"] = ratio(sum("middlebox_lost_races_total{"), sum("middlebox_triggers_total{"))
	r.layers["middlebox.flow_evictions_per_op"] = ratio(sum("middlebox_flow_evictions_total{"), ops)
	r.layers["trafficgen.flows_per_op"] = ratio(sum("trafficgen_flows_total"), ops)
}
