package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/censor"
)

// fakeClock is a deterministic, monotonically advancing test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 7, 27, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Second)
	return c.now
}

// one wraps a single result as the one-element batch WriteBatch takes.
func one(r censor.Result) []censor.Result { return []censor.Result{r} }

// res builds a synthetic result for store-only tests.
func res(vantage, measurement, domain string, blocked bool) censor.Result {
	r := censor.Result{Vantage: vantage, Measurement: measurement, Domain: domain, Blocked: blocked}
	if blocked {
		r.Mechanism = censor.MechanismNotification
		r.Censor = vantage
	}
	return r
}

// sharedSession caches one small-world session for the campaign-backed
// tests (the same pattern the censor package tests use).
var (
	sessOnce sync.Once
	sess     *censor.Session
	sessErr  error
)

func smallSession(t *testing.T) *censor.Session {
	t.Helper()
	sessOnce.Do(func() {
		sess, sessErr = censor.NewSession(context.Background(),
			censor.WithScenario(censor.MustLookupScenario("small")))
	})
	if sessErr != nil {
		t.Fatalf("NewSession: %v", sessErr)
	}
	return sess
}

func TestStoreRingEviction(t *testing.T) {
	store := NewStore(WithRingSize(4), withClock(newFakeClock().Now))
	sink := store.Begin("s", "test")
	for i := 0; i < 10; i++ {
		if err := sink.WriteBatch(one(res("Airtel", "dns", fmt.Sprintf("d%02d.com", i), i%2 == 0))); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := store.Results(Query{})
	if len(got) != 4 {
		t.Fatalf("ring retained %d results, want 4", len(got))
	}
	for i, r := range got {
		want := fmt.Sprintf("d%02d.com", 6+i)
		if r.Domain != want {
			t.Errorf("retained[%d] = %s, want %s (oldest must be evicted first)", i, r.Domain, want)
		}
		if r.Run != sink.Run() || r.Scenario != "s" {
			t.Errorf("retained[%d] coordinates wrong: %+v", i, r)
		}
	}

	st := store.Stats()
	if st.Ingested != 10 || st.Evicted != 6 || st.Results != 4 {
		t.Errorf("stats = %+v, want ingested=10 evicted=6 results=4", st)
	}

	// Roll-ups are eviction-proof: the run and its tally still count all
	// ten results.
	info, ok := store.Run(sink.Run())
	if !ok || info.Results != 10 || info.Blocked != 5 || !info.Done {
		t.Errorf("run info = %+v, want 10 results, 5 blocked, done", info)
	}
	sum, ok := store.Summary(sink.Run())
	if !ok || len(sum.Vantages) != 1 || sum.Vantages[0].Tally.Total != 10 {
		t.Errorf("summary lost evicted results: %+v", sum)
	}
}

func TestStoreWriteAfterFlush(t *testing.T) {
	store := NewStore(withClock(newFakeClock().Now))
	sink := store.Begin("s", "test")
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := sink.WriteBatch(one(res("Idea", "dns", "a.com", false))); err == nil {
		t.Fatal("WriteBatch after Flush succeeded, want error")
	}
}

func TestStoreQueryFilters(t *testing.T) {
	clock := newFakeClock()
	store := NewStore(withClock(clock.Now))

	run1 := store.Begin("alpha", "test")
	run1.WriteBatch(one(res("Airtel", "dns", "a.com", true)))
	run1.WriteBatch(one(res("Airtel", "http", "a.com", false)))
	run1.WriteBatch(one(res("Idea", "http", "b.com", true)))
	run1.Flush()
	var cut time.Time
	{
		// Everything after this instant belongs to run 2.
		cut = clock.Now()
	}
	run2 := store.Begin("beta", "test")
	run2.WriteBatch(one(res("Airtel", "dns", "c.com", true)))
	run2.WriteBatch(one(res("Idea", "http", "b.com", false)))
	run2.Flush()

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 5},
		{"scenario", Query{Scenario: "alpha"}, 3},
		{"vantage", Query{Vantage: "Airtel"}, 3},
		{"measurement", Query{Measurement: "http"}, 3},
		{"mechanism", Query{Mechanism: censor.MechanismNotification}, 3},
		{"domain", Query{Domain: "b.com"}, 2},
		{"blocked", Query{BlockedOnly: true}, 3},
		{"run", Query{Run: run2.Run()}, 2},
		{"since-run", Query{SinceRun: run2.Run()}, 2},
		{"since-time", Query{Since: cut}, 2},
		{"latest", Query{Latest: 2}, 2},
		{"combined", Query{Vantage: "Idea", Measurement: "http", BlockedOnly: true}, 1},
	}
	for _, tc := range cases {
		got := store.Results(tc.q)
		if len(got) != tc.want {
			t.Errorf("%s: got %d results, want %d (%+v)", tc.name, len(got), tc.want, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Errorf("%s: results out of ingestion order", tc.name)
			}
		}
	}
	// Latest keeps the newest matches.
	latest := store.Results(Query{Latest: 2})
	if latest[0].Domain != "c.com" || latest[1].Domain != "b.com" {
		t.Errorf("Latest kept the wrong tail: %+v", latest)
	}
}

func TestStoreDelta(t *testing.T) {
	store := NewStore(withClock(newFakeClock().Now))
	run1 := store.Begin("s", "test")
	run1.WriteBatch(one(res("Airtel", "http", "x.com", true)))
	run1.WriteBatch(one(res("Airtel", "http", "y.com", true)))
	run1.WriteBatch(one(res("Idea", "http", "x.com", true)))
	run1.Flush()
	run2 := store.Begin("s", "test")
	run2.WriteBatch(one(res("Airtel", "http", "y.com", true)))
	run2.WriteBatch(one(res("Airtel", "http", "z.com", true)))
	run2.WriteBatch(one(res("Idea", "http", "x.com", true)))
	run2.Flush()

	d, err := store.DeltaSince(run1.Run(), run2.Run())
	if err != nil {
		t.Fatalf("DeltaSince: %v", err)
	}
	if len(d.Vantages) != 1 {
		t.Fatalf("delta = %+v, want churn for Airtel only", d)
	}
	vd := d.Vantages[0]
	if vd.Vantage != "Airtel" ||
		len(vd.Added) != 1 || vd.Added[0] != "z.com" ||
		len(vd.Removed) != 1 || vd.Removed[0] != "x.com" {
		t.Errorf("Airtel churn = %+v, want added [z.com] removed [x.com]", vd)
	}

	if _, err := store.DeltaSince(99, run2.Run()); err == nil {
		t.Error("DeltaSince accepted an unknown run")
	}
}

func TestStoreRunRetention(t *testing.T) {
	store := NewStore(WithRunRetention(2), withClock(newFakeClock().Now))
	var runs []*RunSink
	for i := 0; i < 4; i++ {
		s := store.Begin("s", "test")
		s.WriteBatch(one(res("Airtel", "dns", "a.com", false)))
		s.Flush()
		runs = append(runs, s)
	}
	if got := store.Runs(); len(got) != 2 || got[0].Run != runs[2].Run() {
		t.Fatalf("retained runs = %+v, want the newest two", got)
	}
	if _, ok := store.Summary(runs[0].Run()); ok {
		t.Error("evicted run still has a summary")
	}
}

// TestStoreRetentionSparesOpenRuns: retention pressure must never evict
// a run that is still ingesting — its sink would start failing
// mid-campaign.
func TestStoreRetentionSparesOpenRuns(t *testing.T) {
	store := NewStore(WithRunRetention(1), withClock(newFakeClock().Now))
	open := store.Begin("s", "test")
	open.WriteBatch(one(res("Airtel", "dns", "a.com", false)))
	// Churn through finished runs well past the cap.
	for i := 0; i < 3; i++ {
		s := store.Begin("s", "test")
		s.WriteBatch(one(res("Airtel", "dns", "b.com", false)))
		s.Flush()
	}
	// The open run is still writable...
	if err := open.WriteBatch(one(res("Airtel", "dns", "c.com", false))); err != nil {
		t.Fatalf("open run evicted under retention pressure: %v", err)
	}
	if err := open.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// ...and counted everything.
	info, ok := store.Run(open.Run())
	if !ok || info.Results != 2 {
		t.Errorf("open run info = %+v (ok=%v), want 2 results", info, ok)
	}
}

// TestStoreConcurrentWriteQuery is the store's concurrency contract
// under -race: many writers (distinct runs), many readers, no locks held
// by the caller.
func TestStoreConcurrentWriteQuery(t *testing.T) {
	store := NewStore(WithRingSize(64))
	const writers, perWriter = 4, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			sink := store.Begin(fmt.Sprintf("s%d", w), "test")
			for i := 0; i < perWriter; i++ {
				if err := sink.WriteBatch(one(res("Airtel", "dns", fmt.Sprintf("d%d.com", i), i%3 == 0))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
			sink.Flush()
		}(w)
	}
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				store.Results(Query{Vantage: "Airtel", Latest: 10})
				store.Runs()
				store.Stats()
				if info, ok := store.LatestRun(""); ok {
					store.Summary(info.Run)
					store.SummaryText(info.Run)
				}
				// Yield so writers make progress on small CPU counts; the
				// point is interleaving, not throughput.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() { writeWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent writers did not finish")
	}
	close(stop)
	readWG.Wait()
	if st := store.Stats(); st.Ingested != writers*perWriter || st.Runs != writers {
		t.Errorf("stats after concurrent ingest = %+v", st)
	}
}

// TestStoreSummaryMatchesAggregateSink is the acceptance check: draining
// one campaign into both an AggregateSink and a store run must yield
// byte-for-byte identical summaries.
func TestStoreSummaryMatchesAggregateSink(t *testing.T) {
	s := smallSession(t)
	store := NewStore()
	stream, err := s.Run(context.Background(), censor.Campaign{
		Domains:      s.PBWDomains()[:12],
		Measurements: []censor.Measurement{censor.DNS(), censor.HTTP()},
	}, censor.WithVantages("Airtel", "Idea", "MTNL"), censor.WithWorkers(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	agg := censor.NewAggregateSink()
	sink := store.Begin("small", "test")
	if err := stream.Drain(agg, sink); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	text, ok := store.SummaryText(sink.Run())
	if !ok {
		t.Fatal("store lost the run")
	}
	if !bytes.Equal([]byte(text), []byte(agg.Summary())) {
		t.Fatalf("store summary diverged from drained AggregateSink:\n--- store ---\n%s\n--- sink ---\n%s",
			text, agg.Summary())
	}
	if text == "" || !bytes.Contains([]byte(text), []byte("Airtel")) {
		t.Fatalf("summary looks empty: %q", text)
	}
}

// batchRes builds a mixed-key result set: several vantages and
// measurements so batches cross ring (and shard) boundaries.
func batchRes(n int) []censor.Result {
	vantages := []string{"Airtel", "Idea", "Vodafone"}
	measurements := []string{"dns", "http"}
	out := make([]censor.Result, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, res(vantages[i%len(vantages)], measurements[(i/3)%len(measurements)],
			fmt.Sprintf("d%03d.com", i), i%4 == 0))
	}
	return out
}

// TestStoreWriteBatchMatchesWrite pins the batch-ingest contract: a run
// fed in uneven, key-crossing chunks is indistinguishable — results,
// sequence order, info row, summary — from the same results written one
// at a time as one-element batches.
func TestStoreWriteBatchMatchesWrite(t *testing.T) {
	results := batchRes(60)

	single := NewStore(withClock(newFakeClock().Now))
	ss := single.Begin("s", "test")
	for i := range results {
		if err := ss.WriteBatch(results[i : i+1]); err != nil {
			t.Fatalf("WriteBatch(one): %v", err)
		}
	}
	ss.Flush()

	batched := NewStore(withClock(newFakeClock().Now))
	bs := batched.Begin("s", "test")
	for start := 0; start < len(results); {
		end := start + 7 // uneven chunks: batches straddle key groups
		if end > len(results) {
			end = len(results)
		}
		if err := bs.WriteBatch(results[start:end]); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		start = end
	}
	bs.Flush()

	sr, br := single.Results(Query{}), batched.Results(Query{})
	if len(sr) != len(results) || len(br) != len(results) {
		t.Fatalf("retained %d / %d results, want %d", len(sr), len(br), len(results))
	}
	for i := range sr {
		if !reflect.DeepEqual(sr[i], br[i]) {
			t.Fatalf("result %d diverged:\none by one: %+v\nchunked:    %+v", i, sr[i], br[i])
		}
	}
	si, _ := single.Run(ss.Run())
	bi, _ := batched.Run(bs.Run())
	if si != bi {
		t.Errorf("run info diverged:\none by one: %+v\nchunked:    %+v", si, bi)
	}
	st, _ := single.SummaryText(ss.Run())
	bt, _ := batched.SummaryText(bs.Run())
	if st != bt {
		t.Errorf("summary diverged:\n--- one by one ---\n%s\n--- chunked ---\n%s", st, bt)
	}
	if ss, bs := single.Stats(), batched.Stats(); ss != bs {
		t.Errorf("stats diverged: %+v vs %+v", ss, bs)
	}
}

// TestStoreWriteBatchAfterFlush mirrors the write-after-Flush guard for
// a multi-result batch, which must be rejected whole.
func TestStoreWriteBatchAfterFlush(t *testing.T) {
	store := NewStore()
	sink := store.Begin("s", "test")
	if err := sink.WriteBatch(batchRes(3)); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	sink.Flush()
	if err := sink.WriteBatch(batchRes(3)); err == nil {
		t.Fatal("WriteBatch after Flush succeeded, want error")
	}
	if st := store.Stats(); st.Ingested != 3 {
		t.Errorf("Ingested = %d, want 3", st.Ingested)
	}
}

// TestStoreConcurrentBatchIngest exercises the sharded write path the
// way censord's batched drains do: several runs batch-ingesting at once
// while queries interleave, with counters checked at the end.
func TestStoreConcurrentBatchIngest(t *testing.T) {
	store := NewStore(WithRingSize(64))
	const writers, batches, perBatch = 4, 25, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := store.Begin(fmt.Sprintf("s%d", w), "test")
			chunk := batchRes(perBatch)
			for i := 0; i < batches; i++ {
				if err := sink.WriteBatch(chunk); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				store.Results(Query{Scenario: fmt.Sprintf("s%d", w), Latest: 5})
			}
			sink.Flush()
		}(w)
	}
	wg.Wait()
	st := store.Stats()
	if want := uint64(writers * batches * perBatch); st.Ingested != want {
		t.Errorf("Ingested = %d, want %d", st.Ingested, want)
	}
	if st.Open != 0 {
		t.Errorf("Open = %d, want 0", st.Open)
	}
	// Sequence numbers must be unique and the per-run tallies complete.
	seen := map[uint64]bool{}
	for _, r := range store.Results(Query{}) {
		if seen[r.Seq] {
			t.Fatalf("duplicate Seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	for _, info := range store.Runs() {
		if info.Results != batches*perBatch {
			t.Errorf("run %d rolled up %d results, want %d", info.Run, info.Results, batches*perBatch)
		}
	}
}

func TestSchedulerRunOnce(t *testing.T) {
	store := NewStore()
	sched, err := NewScheduler(context.Background(), store, Job{
		Scenario:  censor.MustLookupScenario("small"),
		Campaign:  censor.Campaign{Measurements: []censor.Measurement{censor.DNS()}},
		DomainCap: 2,
		Workers:   2,
		Options:   []censor.Option{censor.WithVantages("Airtel", "Idea")},
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	info, err := sched.RunOnce(context.Background(), "small")
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if !info.Done || info.Results != 4 || info.Scenario != "small" || info.Source != "api" {
		t.Errorf("run info = %+v, want 4 results (2 vantages x 1 measurement x 2 domains)", info)
	}
	if _, err := sched.RunOnce(context.Background(), "nope"); err == nil {
		t.Error("RunOnce accepted an unknown job")
	}
}

func TestSchedulerCadenceAndShutdown(t *testing.T) {
	store := NewStore()
	sched, err := NewScheduler(context.Background(), store, Job{
		Scenario:  censor.MustLookupScenario("small"),
		Campaign:  censor.Campaign{Measurements: []censor.Measurement{censor.DNS()}},
		DomainCap: 2,
		Every:     30 * time.Millisecond,
		Jitter:    5 * time.Millisecond,
		Workers:   2,
		Options:   []censor.Option{censor.WithVantages("Airtel")},
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if err := sched.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
	runs := store.Runs()
	if len(runs) < 2 {
		t.Fatalf("scheduler recorded %d runs in 600ms at 30ms cadence, want >= 2", len(runs))
	}
	for _, r := range runs {
		if r.Scenario != "small" || r.Source != "scheduler" {
			t.Errorf("scheduled run mis-labelled: %+v", r)
		}
		// Every run either completed (2 results) or was the final one cut
		// by shutdown (Err records the cancellation).
		if r.Done && r.Err == "" && r.Results != 2 {
			t.Errorf("complete run has %d results, want 2: %+v", r.Results, r)
		}
	}
}

func TestSchedulerValidation(t *testing.T) {
	store := NewStore()
	if _, err := NewScheduler(context.Background(), store); err == nil {
		t.Error("NewScheduler accepted zero jobs")
	}
	if _, err := NewScheduler(context.Background(), nil, Job{}); err == nil {
		t.Error("NewScheduler accepted a nil store")
	}
	if _, err := NewScheduler(context.Background(), store, Job{}); err == nil {
		t.Error("NewScheduler accepted a nameless job")
	}
	small := censor.MustLookupScenario("small")
	if _, err := NewScheduler(context.Background(), store,
		Job{Scenario: small}, Job{Scenario: small}); err == nil {
		t.Error("NewScheduler accepted duplicate job names")
	}
	bad := small
	bad.ISPs = nil
	if _, err := NewScheduler(context.Background(), store, Job{Name: "bad", Scenario: bad}); err == nil {
		t.Error("NewScheduler accepted an invalid scenario")
	}
}
