package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/censor"
	"repro/monitor"
	"repro/obs"
)

// ingestDomains shapes the pushed body as censord's default campaign:
// -scenario small, -measure dns,http, -domains 16, so 288 results.
const ingestDomains = 16

// Open-loop rates of the censord-ingest workload, per second. No deployment
// in the repository fixes a push rate: censord's only producer, censorscan
// -push, sends one campaign per invocation. The rates are a load level
// instead: 400 pushes/s is about 6% of the 6,200/s that phase B's two
// closed-loop pushers sustain on a 2-core EPYC, so Poisson bursts queue
// requests at times while the store stays far from saturation.
const (
	pushRate  = 400.0
	queryRate = 100.0
)

var ingestQueries = []string{
	"/v1/results?vantage=Idea&measurement=http&latest=64",
	"/v1/summary?format=text",
}

// censord is a monitor store behind censord's HTTP handler on loopback,
// built the way cmd/censord builds it, plus the JSONL body pushed to it.
type censord struct {
	base    string
	reg     *obs.Registry
	body    []byte
	results int    // results in body
	summary string // AggregateSink summary of body
}

// runIngest drives censord's HTTP face with no simulation behind it.
// Phase A, the first half of the run, is open loop: Poisson pushes of one
// campaign's JSONL at 400/s beside Poisson queries at 100/s, over at most
// two connections, each timed from when it was due. Phase B, the second
// half, is closed loop: two pushers back to back. The seed draws the
// arrival times and orders the body. An op is one push; latency samples
// come from phase A, ops_per_s from phase B.
func runIngest(r *run) (*outcome, error) {
	o := &outcome{}
	domains := ingestDomains
	if r.tiny {
		domains = 4
	}
	s, stop, err := repeatSetup(r.params, o, func() (*censord, func(), error) {
		return startCensord(r.seed, domains)
	})
	defer stop()
	if err != nil {
		return nil, err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   10 * time.Second,
	}
	defer client.CloseIdleConnections()

	phaseA := r.seconds / 2
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x10ad))
	type arrival struct {
		at    time.Duration
		query int // -1 for a push, else an index into ingestQueries
	}
	var arrivals []arrival
	for t, nq := time.Duration(0), 0; ; {
		t += time.Duration(rng.ExpFloat64() / (pushRate + queryRate) * float64(time.Second))
		if t >= phaseA {
			break
		}
		a := arrival{at: t, query: -1}
		if rng.Float64() < queryRate/(pushRate+queryRate) {
			a.query = nq % len(ingestQueries)
			nq++
		}
		arrivals = append(arrivals, a)
	}
	lat := make([]time.Duration, len(arrivals))
	late := make([]time.Duration, len(arrivals))
	errs := make([]error, len(arrivals))
	evicted0 := s.reg.Counter("monitor_results_evicted_total").Value()

	if err := r.begin(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.query < 0 {
				span := r.span("push", 101)
				errs[i] = s.push(client)
				r.spans.Finish(span)
			} else {
				span := r.span("query", 102)
				_, errs[i] = s.get(client, ingestQueries[a.query])
				r.spans.Finish(span)
			}
			lat[i] = time.Since(due)
		}()
	}
	wg.Wait()

	phaseB := r.seconds - phaseA
	var (
		mu       sync.Mutex
		doneB    []time.Duration // when each successful phase-B push ended
		failures []error
		startB   = time.Now()
		attempts = len(arrivals)
	)
	for tid := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(startB) < phaseB {
				span := r.span("push", 103+tid)
				err := s.push(client)
				r.spans.Finish(span)
				mu.Lock()
				attempts++
				if err != nil {
					failures = append(failures, err)
				} else {
					doneB = append(doneB, time.Since(startB))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.end()

	var queryLat []time.Duration
	pushesA := 0
	for i, a := range arrivals {
		switch {
		case errs[i] != nil:
			failures = append(failures, errs[i])
		case a.query < 0:
			pushesA++
			o.latencies = append(o.latencies, lat[i])
		default:
			queryLat = append(queryLat, lat[i])
		}
	}
	if len(failures) > 0 {
		o.failed = len(failures)
		o.problem("%d requests failed, first: %v", len(failures), failures[0])
	}
	o.ops = pushesA + len(doneB)
	o.attempted = attempts
	// ops_per_s is the median rate over tenths of phase B's pushes.
	slices.Sort(doneB)
	tenth := max(1, len(doneB)/10)
	for i, prev := tenth, time.Duration(0); i <= len(doneB); i += tenth {
		o.rates = append(o.rates, float64(tenth)/(doneB[i-1]-prev).Seconds())
		prev = doneB[i-1]
	}

	// The last run's summary, rendered by the store from write-time
	// roll-ups, must match an AggregateSink fed the same body.
	got, err := s.get(client, "/v1/summary?format=text")
	switch {
	case err != nil:
		o.problem("final summary: %v", err)
	case string(got) != s.summary:
		o.problem("final /v1/summary differs from AggregateSink.Summary of the pushed body")
	}
	sum := sha256.Sum256(got)
	o.checkDigest(r.params, hex.EncodeToString(sum[:]))

	if r.traced {
		r.layers["censord.push_p99_ms"] = ms(quantile(o.latencies, 0.99))
		r.layers["censord.query_p50_ms"] = ms(quantile(queryLat, 0.50))
		r.layers["censord.query_p99_ms"] = ms(quantile(queryLat, 0.99))
		r.layers["loadgen.late_p99_ms"] = ms(quantile(late, 0.99))
		evicted := s.reg.Counter("monitor_results_evicted_total").Value() - evicted0
		r.layers["monitor.results_evicted_per_op"] = ratio(float64(evicted), float64(o.ops))
		if err := directMonitor(r, s); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// startCensord builds the pushed body from a small dns+http campaign over
// the first domains of the catalog, in the seeded order, then starts the
// store and handler on a loopback listener. The returned func stops the
// server and waits for it.
func startCensord(seed int64, domains int) (*censord, func(), error) {
	ctx := context.Background()
	sess, err := censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario("small")))
	if err != nil {
		return nil, nil, err
	}
	stream, err := sess.Run(ctx, censor.Campaign{
		Domains:      seededOrder(sess.PBWDomains()[:domains], seed),
		Measurements: []censor.Measurement{censor.DNS(), censor.HTTP()},
	}, censor.WithWorkers(workers))
	if err != nil {
		return nil, nil, err
	}
	var body bytes.Buffer
	agg := censor.NewAggregateSink()
	if err := stream.Drain(censor.NewJSONLSink(&body), agg); err != nil {
		return nil, nil, err
	}
	results := 0
	for _, v := range agg.Vantages() {
		results += agg.TallyFor(v).Total
	}

	reg := obs.NewRegistry()
	store := monitor.NewStore(monitor.WithRingSize(512), monitor.WithRunRetention(64), monitor.WithTelemetry(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: monitor.NewHandler(store, nil, monitor.WithMetrics(reg))}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		srv.Close()
		<-done
	}
	s := &censord{
		base:    "http://" + ln.Addr().String(),
		reg:     reg,
		body:    body.Bytes(),
		results: results,
		summary: agg.Summary(),
	}
	// Like censord's startup campaign: one finished run before the load
	// starts, so summary queries always have a run to render.
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	if err := s.push(client); err != nil {
		stop()
		return nil, nil, fmt.Errorf("first push: %w", err)
	}
	return s, stop, nil
}

// push POSTs the body as a new run and checks the run holds every result.
func (s *censord) push(c *http.Client) error {
	resp, err := c.Post(s.base+"/v1/results?scenario=small", "application/x-ndjson", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var info monitor.RunInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	switch {
	case resp.StatusCode != http.StatusCreated:
		return fmt.Errorf("push: %s", resp.Status)
	case derr != nil:
		return fmt.Errorf("push: run info: %v", derr)
	case info.Results != s.results:
		return fmt.Errorf("push: run %d holds %d results, want %d", info.Run, info.Results, s.results)
	}
	return nil
}

// get fetches path and fails on any non-2xx status.
func (s *censord) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// directMonitor times the store's layers by calling them directly on the
// same body and queries: JSONL decode, batched ingest in the handler's
// 256-result chunks, a filtered query, and the text summary.
func directMonitor(r *run, s *censord) error {
	store := monitor.NewStore(monitor.WithRingSize(512), monitor.WithRunRetention(64))
	reps := 100
	if r.tiny {
		reps = 5
	}
	var dec, ingest, query, summary []time.Duration
	for range reps {
		t := time.Now()
		rs, err := censor.ReadJSONL(bytes.NewReader(s.body))
		if err != nil {
			return err
		}
		dec = append(dec, time.Since(t))

		t = time.Now()
		sink := store.Begin("small", "bench")
		for len(rs) > 0 {
			n := min(256, len(rs))
			if err := sink.WriteBatch(rs[:n]); err != nil {
				return err
			}
			rs = rs[n:]
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		ingest = append(ingest, time.Since(t))

		t = time.Now()
		store.Results(monitor.Query{Vantage: "Idea", Measurement: "http", Latest: 64})
		query = append(query, time.Since(t))

		t = time.Now()
		if _, ok := store.SummaryText(sink.Run()); !ok {
			return fmt.Errorf("store lost run %d", sink.Run())
		}
		summary = append(summary, time.Since(t))
	}
	r.layers["monitor.decode_us_per_post"] = us(quantile(dec, 0.5))
	r.layers["monitor.writebatch_us_per_post"] = us(quantile(ingest, 0.5))
	r.layers["monitor.query_us"] = us(quantile(query, 0.5))
	r.layers["monitor.summary_us"] = us(quantile(summary, 0.5))
	return nil
}
