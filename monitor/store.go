// Package monitor is the continuous-measurement observatory layer: the
// long-running service half of the reproduction, on top of the censor
// package's one-shot campaigns.
//
// The paper's study was a sequence of manual measurement campaigns; the
// questions it could not ask — how blocklists churn week over week, when
// a middlebox deployment changes behaviour — need a service that keeps
// measuring and keeps the answers queryable. This package provides that
// service in three pieces:
//
//   - [Store], a concurrency-safe in-memory result store. Each ingestion
//     run writes through the [censor.Sink] that [Store.Begin] returns.
//     Raw results live in bounded per-(scenario, vantage, measurement)
//     ring buffers; every ingested result is also folded into per-run
//     [censor.Tally] roll-ups at write time, so summary queries never
//     scan raw results. Runs carry monotonic epochs.
//   - [Scheduler], which executes recurring campaigns (per-job cadence
//     and jitter, context-aware shutdown) against pooled sessions and
//     ingests each run into the store.
//   - [NewHandler], the HTTP face: /healthz plus the versioned /v1/*
//     query and trigger endpoints cmd/censord serves.
//
// Store queries run concurrently with ingestion, and ingestion scales
// past one writer: instead of a store-wide mutex, raw-result rings are
// spread over a fixed array of key shards (hashed by scenario, vantage
// and measurement), per-run roll-ups take a per-run lock, and the
// lifetime counters are atomics. Two campaigns ingesting different
// vantages never contend; a batched drain locks its single shard once
// per task. Every query returns copies — a deliberate contrast with
// JSONLSink/CSVSink, which are only safe single-writer through
// Stream.Drain.
package monitor

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/censor"
	"repro/obs"
)

// key addresses one ring buffer: raw results are retained per
// (scenario, vantage, measurement) so one chatty detector cannot evict
// another's history.
type key struct {
	Scenario, Vantage, Measurement string
}

// storeShards is the fixed shard count for the raw-result rings. A
// power of two so shardFor reduces with a mask; 64 comfortably exceeds
// any plausible writer parallelism while costing ~4KB of empty store.
const storeShards = 64

// shardFor hashes a ring key onto its shard: FNV-1a over the three
// strings with a separator byte between them, masked to the shard
// count. Zero-alloc — the ingest hot path runs through here.
func shardFor(k key) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(k.Scenario); i++ {
		h = (h ^ uint32(k.Scenario[i])) * prime32
	}
	h = (h ^ 0xff) * prime32
	for i := 0; i < len(k.Vantage); i++ {
		h = (h ^ uint32(k.Vantage[i])) * prime32
	}
	h = (h ^ 0xff) * prime32
	for i := 0; i < len(k.Measurement); i++ {
		h = (h ^ uint32(k.Measurement[i])) * prime32
	}
	return h & (storeShards - 1)
}

// storeShard is one slice of the raw-result rings: its own lock, its
// own key set (first-seen order within the shard). Padded so adjacent
// shard locks do not share a cache line under write contention.
type storeShard struct {
	mu    sync.RWMutex
	rings map[key]*ring
	keys  []key
	_     [64]byte
}

// StoredResult is one retained measurement record: the uniform
// censor.Result plus the observatory coordinates — which run (epoch)
// produced it, under which scenario, its global ingestion sequence
// number, and the wall-clock ingestion time.
type StoredResult struct {
	censor.Result
	Run      int       `json:"run"`
	Scenario string    `json:"scenario"`
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
}

// RunInfo describes one ingestion run: a scheduler campaign, an
// on-demand API trigger, or a batch push from censorscan.
type RunInfo struct {
	// Run is the monotonic epoch, unique across all scenarios.
	Run int `json:"run"`
	// Scenario names the world the results were measured on.
	Scenario string `json:"scenario"`
	// Source records who ingested the run ("scheduler", "api", "push").
	Source string `json:"source,omitempty"`
	// Started/Finished bracket the ingestion wall-clock time; Finished is
	// zero until the run's sink is flushed.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Done reports whether the run's sink has been flushed.
	Done bool `json:"done"`
	// Results/Blocked/Errors count every ingested record of the run —
	// ring eviction never decrements them.
	Results int `json:"results"`
	Blocked int `json:"blocked"`
	Errors  int `json:"errors"`
	// Err records a campaign that ended early (cancellation, sink
	// failure); empty for a complete run.
	Err string `json:"err,omitempty"`
}

// runState is one run's retained roll-up: its info row, the aggregate
// (fed the same fold as a drained AggregateSink, so summaries match
// byte-for-byte), and the per-vantage blocked-domain sets behind
// DeltaSince. Each run carries its own lock, so concurrent runs roll up
// without contending; the aggregate locks itself.
type runState struct {
	mu      sync.Mutex // guards info and blocked
	info    RunInfo
	agg     *censor.AggregateSink
	blocked map[string]map[string]bool // vantage -> blocked domains
}

// infoCopy snapshots the run's info row under its lock.
func (st *runState) infoCopy() RunInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.info
}

// ring is a fixed-capacity result buffer: append overwrites the oldest
// entry once full.
type ring struct {
	buf     []StoredResult
	head, n int
}

func (rg *ring) append(r StoredResult) (evicted bool) {
	if rg.n < len(rg.buf) {
		rg.buf[(rg.head+rg.n)%len(rg.buf)] = r
		rg.n++
		return false
	}
	rg.buf[rg.head] = r
	rg.head = (rg.head + 1) % len(rg.buf)
	return true
}

// each visits the ring's entries oldest-first.
func (rg *ring) each(fn func(StoredResult)) {
	for i := 0; i < rg.n; i++ {
		fn(rg.buf[(rg.head+i)%len(rg.buf)])
	}
}

// Store is the observatory's in-memory result store. Results enter
// through the per-run sinks Begin hands out — the Scheduler, the
// campaign-trigger endpoint and the batch-push endpoint each open one
// per run.
//
// Unlike the stream sinks, Store is explicitly safe for concurrent use:
// any number of goroutines may ingest while any number query — Results,
// Summary, Runs, DeltaSince all return copies. Locking is sharded so
// writers scale with cores instead of serializing on one mutex: each
// batch takes its run's lock once for the roll-ups and one key shard's
// lock per same-key group of results; writers to different runs and
// different (scenario, vantage, measurement) keys proceed in parallel.
// Memory is bounded on both axes: raw results by per-key ring buffers
// (WithRingSize), roll-ups by run retention (WithRunRetention).
type Store struct {
	ringSize int
	runCap   int
	clock    func() time.Time

	shards [storeShards]storeShard

	runsMu  sync.RWMutex // guards the runs slice and nextRun
	runs    []*runState  // retained runs, ascending epoch
	nextRun int

	nextSeq  atomic.Uint64 // global ingestion order
	ingested atomic.Uint64 // results ever written
	evicted  atomic.Uint64 // results displaced from rings

	// obs mirrors of the counters above, plus run opens; nil (no-op)
	// instruments unless WithTelemetry was given.
	reg       *obs.Registry
	cRuns     *obs.Counter
	cIngested *obs.Counter
	cEvicted  *obs.Counter
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithRingSize bounds each (scenario, vantage, measurement) ring buffer
// to n raw results (default 512). Aggregates are unaffected by eviction.
func WithRingSize(n int) StoreOption {
	return func(s *Store) {
		if n > 0 {
			s.ringSize = n
		}
	}
}

// WithRunRetention bounds how many runs keep their roll-ups (info,
// tallies, delta sets); the oldest *finished* run is dropped past n
// (default 64) — in-flight runs are never evicted.
func WithRunRetention(n int) StoreOption {
	return func(s *Store) {
		if n > 0 {
			s.runCap = n
		}
	}
}

// withClock injects the ingestion clock (tests).
func withClock(fn func() time.Time) StoreOption {
	return func(s *Store) { s.clock = fn }
}

// WithTelemetry mirrors the store's counters — runs opened, results
// ingested, ring evictions — into reg under the monitor_* prefix, for
// the /metrics endpoint. A nil registry leaves them as no-ops.
func WithTelemetry(reg *obs.Registry) StoreOption {
	return func(s *Store) { s.reg = reg }
}

// NewStore builds an empty store.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		ringSize: 512,
		runCap:   64,
		clock:    time.Now,
		nextRun:  1,
	}
	for _, o := range opts {
		o(s)
	}
	for i := range s.shards {
		s.shards[i].rings = map[key]*ring{}
	}
	s.cRuns = s.reg.Counter("monitor_runs_total")
	s.cIngested = s.reg.Counter("monitor_results_ingested_total")
	s.cEvicted = s.reg.Counter("monitor_results_evicted_total")
	return s
}

// RunSink ingests one run's results into the store. It implements
// censor.Sink: hand it to Stream.Drain, which delivers whole task
// batches — one run-lock and usually one shard-lock round-trip per task
// — or call WriteBatch from application code, a single result being a
// one-element batch. Each batch is locked on its own, so concurrent
// writers are safe (their interleaving decides sequence numbers). Flush
// finalizes the run; writes after Flush fail.
type RunSink struct {
	s   *Store
	st  *runState
	run int
}

// Begin opens a new run under the given scenario name and returns its
// sink. Epochs are monotonic across all scenarios and sources.
func (s *Store) Begin(scenario, source string) *RunSink {
	s.runsMu.Lock()
	defer s.runsMu.Unlock()
	st := &runState{
		info: RunInfo{
			Run:      s.nextRun,
			Scenario: scenario,
			Source:   source,
			Started:  s.clock(),
		},
		agg:     censor.NewAggregateSink(),
		blocked: map[string]map[string]bool{},
	}
	s.nextRun++
	s.cRuns.Inc()
	s.runs = append(s.runs, st)
	if len(s.runs) > s.runCap {
		// Evict the oldest finished run. An in-flight run is never
		// dropped — its sink would start failing mid-campaign — so the
		// cap can be transiently exceeded while many runs ingest at once.
		for i, old := range s.runs {
			if old.infoCopy().Done {
				s.runs = append(s.runs[:i], s.runs[i+1:]...)
				break
			}
		}
	}
	return &RunSink{s: s, st: st, run: st.info.Run}
}

// Run returns the sink's run epoch.
func (rs *RunSink) Run() int { return rs.run }

// WriteBatch ingests one task's results: the run roll-ups fold under a
// single run-lock round-trip, the aggregate under one of its own, and
// the ring appends group consecutive same-key results so a campaign
// task (one vantage, one measurement) costs one shard lock, not one
// per result.
func (rs *RunSink) WriteBatch(batch []censor.Result) error {
	if len(batch) == 0 {
		return nil
	}
	st := rs.st
	st.mu.Lock()
	if st.info.Done {
		st.mu.Unlock()
		return fmt.Errorf("monitor: run %d already finished", rs.run)
	}
	for i := range batch {
		rollupLocked(st, &batch[i])
	}
	st.mu.Unlock()
	st.agg.WriteBatch(batch)
	for start := 0; start < len(batch); {
		end := start + 1
		for end < len(batch) &&
			batch[end].Vantage == batch[start].Vantage &&
			batch[end].Measurement == batch[start].Measurement {
			end++
		}
		rs.s.appendRawGroup(st.info.Scenario, rs.run, batch[start:end])
		start = end
	}
	return nil
}

// rollupLocked folds one result into the run's write-time roll-ups.
// Caller holds st.mu.
func rollupLocked(st *runState, r *censor.Result) {
	st.info.Results++
	if r.Blocked {
		st.info.Blocked++
		set := st.blocked[r.Vantage]
		if set == nil {
			set = map[string]bool{}
			st.blocked[r.Vantage] = set
		}
		set[r.Domain] = true
	}
	if r.Error != "" {
		st.info.Errors++
	}
}

// appendRawGroup lands a same-key group of results under one shard
// lock.
func (s *Store) appendRawGroup(scenario string, run int, rs []censor.Result) {
	k := key{Scenario: scenario, Vantage: rs[0].Vantage, Measurement: rs[0].Measurement}
	sh := &s.shards[shardFor(k)]
	evicted := 0
	sh.mu.Lock()
	for i := range rs {
		if s.ringAppendLocked(sh, k, run, rs[i]) {
			evicted++
		}
	}
	sh.mu.Unlock()
	s.countAppend(len(rs), evicted)
}

// ringAppendLocked appends one result to its ring (creating it on first
// use), stamping the global sequence number and ingestion time. Caller
// holds the shard lock.
func (s *Store) ringAppendLocked(sh *storeShard, k key, run int, r censor.Result) (evicted bool) {
	rg, ok := sh.rings[k]
	if !ok {
		rg = &ring{buf: make([]StoredResult, s.ringSize)}
		sh.rings[k] = rg
		sh.keys = append(sh.keys, k)
	}
	return rg.append(StoredResult{
		Result:   r,
		Run:      run,
		Scenario: k.Scenario,
		Seq:      s.nextSeq.Add(1),
		Time:     s.clock(),
	})
}

// countAppend advances the lifetime counters after ring appends.
func (s *Store) countAppend(n, evicted int) {
	s.ingested.Add(uint64(n))
	s.cIngested.Add(uint64(n))
	if evicted > 0 {
		s.evicted.Add(uint64(evicted))
		s.cEvicted.Add(uint64(evicted))
	}
}

// Flush finalizes the run: stamps Finished, marks it Done.
func (rs *RunSink) Flush() error {
	rs.st.mu.Lock()
	defer rs.st.mu.Unlock()
	if !rs.st.info.Done {
		rs.st.info.Done = true
		rs.st.info.Finished = rs.s.clock()
	}
	return nil
}

// FinishErr records a campaign error on the run (the stream ended early)
// and finalizes it. Use after Stream.Drain returns non-nil; Drain has
// already flushed the sink by then, so this only annotates the run.
func (rs *RunSink) FinishErr(err error) {
	rs.st.mu.Lock()
	defer rs.st.mu.Unlock()
	if err != nil {
		rs.st.info.Err = err.Error()
	}
	if !rs.st.info.Done {
		rs.st.info.Done = true
		rs.st.info.Finished = rs.s.clock()
	}
}

// findRun resolves a retained run by epoch. Retained runs are few
// (runCap) and ascending; scan from the tail, where the open runs live.
func (s *Store) findRun(run int) *runState {
	s.runsMu.RLock()
	defer s.runsMu.RUnlock()
	for i := len(s.runs) - 1; i >= 0; i-- {
		if s.runs[i].info.Run == run {
			return s.runs[i]
		}
	}
	return nil
}

// --------------------------------------------------------------- queries

// Stats is the store's health roll-up.
type Stats struct {
	// Runs counts retained runs; Open counts those not yet flushed.
	Runs int `json:"runs"`
	Open int `json:"open"`
	// Results counts raw results currently retained in rings; Ingested
	// and Evicted count lifetime writes and ring displacements.
	Results  int    `json:"results"`
	Ingested uint64 `json:"ingested"`
	Evicted  uint64 `json:"evicted"`
}

// Stats reports the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{Ingested: s.ingested.Load(), Evicted: s.evicted.Load()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rg := range sh.rings {
			st.Results += rg.n
		}
		sh.mu.RUnlock()
	}
	for _, run := range s.runSnapshot() {
		st.Runs++
		if !run.infoCopy().Done {
			st.Open++
		}
	}
	return st
}

// runSnapshot copies the retained-run list (ascending epoch) out of the
// runs lock, so per-run locks are taken without holding it.
func (s *Store) runSnapshot() []*runState {
	s.runsMu.RLock()
	defer s.runsMu.RUnlock()
	return append([]*runState(nil), s.runs...)
}

// Runs lists the retained runs in ascending epoch order.
func (s *Store) Runs() []RunInfo {
	runs := s.runSnapshot()
	out := make([]RunInfo, len(runs))
	for i, st := range runs {
		out[i] = st.infoCopy()
	}
	return out
}

// Run returns one run's info.
func (s *Store) Run(run int) (RunInfo, bool) {
	if st := s.findRun(run); st != nil {
		return st.infoCopy(), true
	}
	return RunInfo{}, false
}

// LatestRun returns the newest finished run, optionally restricted to a
// scenario ("" matches any).
func (s *Store) LatestRun(scenario string) (RunInfo, bool) {
	runs := s.runSnapshot()
	for i := len(runs) - 1; i >= 0; i-- {
		info := runs[i].infoCopy()
		if info.Done && (scenario == "" || info.Scenario == scenario) {
			return info, true
		}
	}
	return RunInfo{}, false
}

// Query selects stored results. The zero Query matches everything;
// string fields match exactly when non-empty.
type Query struct {
	Scenario    string
	Vantage     string
	Measurement string
	Mechanism   string
	Domain      string
	// Run selects one epoch exactly (0 = any); SinceRun selects every
	// epoch ≥ its value — the longitudinal "what changed since" filter.
	Run, SinceRun int
	// Since keeps results ingested at or after the given wall-clock time.
	Since time.Time
	// BlockedOnly keeps only positive verdicts.
	BlockedOnly bool
	// Latest keeps only the N most recently ingested matches (0 = all).
	Latest int
}

func (q Query) match(r StoredResult) bool {
	if q.Scenario != "" && r.Scenario != q.Scenario {
		return false
	}
	if q.Vantage != "" && r.Vantage != q.Vantage {
		return false
	}
	if q.Measurement != "" && r.Measurement != q.Measurement {
		return false
	}
	if q.Mechanism != "" && r.Mechanism != q.Mechanism {
		return false
	}
	if q.Domain != "" && r.Domain != q.Domain {
		return false
	}
	if q.Run != 0 && r.Run != q.Run {
		return false
	}
	if q.SinceRun != 0 && r.Run < q.SinceRun {
		return false
	}
	if !q.Since.IsZero() && r.Time.Before(q.Since) {
		return false
	}
	if q.BlockedOnly && !r.Blocked {
		return false
	}
	return true
}

// Results returns the retained results matching the query, in global
// ingestion order (ascending Seq); with Latest set, only the newest N.
// The slice and its entries are copies — callers own them. Shards are
// visited one at a time (ingestion keeps flowing on the others); the
// final sort by sequence number restores the global order.
func (s *Store) Results(q Query) []StoredResult {
	var out []StoredResult
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, k := range sh.keys {
			if q.Scenario != "" && k.Scenario != q.Scenario {
				continue
			}
			if q.Vantage != "" && k.Vantage != q.Vantage {
				continue
			}
			if q.Measurement != "" && k.Measurement != q.Measurement {
				continue
			}
			sh.rings[k].each(func(r StoredResult) {
				if q.match(r) {
					out = append(out, r)
				}
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if q.Latest > 0 && len(out) > q.Latest {
		out = out[len(out)-q.Latest:]
	}
	return out
}

// VantageSummary is one vantage's roll-up inside a run summary.
type VantageSummary struct {
	Vantage string       `json:"vantage"`
	Tally   censor.Tally `json:"tally"`
}

// RunSummary is one run's aggregate view: its info row plus the
// per-vantage tallies, in the campaign's vantage order. Built entirely
// from write-time roll-ups — no raw-result scan.
type RunSummary struct {
	RunInfo
	Vantages []VantageSummary `json:"vantages"`
}

// Summary returns one run's aggregate (false if the run was evicted or
// never existed).
func (s *Store) Summary(run int) (RunSummary, bool) {
	st := s.findRun(run)
	if st == nil {
		return RunSummary{}, false
	}
	// AggregateSink has its own lock; reading it outside the run lock
	// keeps ingest flowing during summary marshalling.
	out := RunSummary{RunInfo: st.infoCopy()}
	for _, v := range st.agg.Vantages() {
		out.Vantages = append(out.Vantages, VantageSummary{Vantage: v, Tally: st.agg.TallyFor(v)})
	}
	return out, true
}

// SummaryText renders one run's aggregate exactly as a drained
// censor.AggregateSink would: same fold, same renderer, byte-for-byte
// identical to draining the run's stream into an AggregateSink directly.
func (s *Store) SummaryText(run int) (string, bool) {
	st := s.findRun(run)
	if st == nil {
		return "", false
	}
	return st.agg.Summary(), true
}

// VantageDelta is one vantage's blocklist churn between two runs.
type VantageDelta struct {
	Vantage string `json:"vantage"`
	// Added lists domains blocked in the later run but not the earlier;
	// Removed the reverse. Sorted.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// Delta is the blocklist churn between two runs — the longitudinal view
// the paper's one-shot campaigns could not produce.
type Delta struct {
	From     int            `json:"from"`
	To       int            `json:"to"`
	Vantages []VantageDelta `json:"vantages"`
}

// blockedCopy snapshots a run's per-vantage blocked-domain sets under
// its lock.
func (st *runState) blockedCopy() map[string]map[string]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]map[string]bool, len(st.blocked))
	for v, set := range st.blocked {
		cp := make(map[string]bool, len(set))
		for d := range set {
			cp[d] = true
		}
		out[v] = cp
	}
	return out
}

// DeltaSince computes per-vantage blocked-domain churn from run `from`
// to run `to`. Vantages appear in the later run's first-write order,
// then any vantage only the earlier run saw.
func (s *Store) DeltaSince(from, to int) (Delta, error) {
	a := s.findRun(from)
	b := s.findRun(to)
	if a == nil {
		return Delta{}, fmt.Errorf("monitor: run %d not retained", from)
	}
	if b == nil {
		return Delta{}, fmt.Errorf("monitor: run %d not retained", to)
	}
	aBlocked, bBlocked := a.blockedCopy(), b.blockedCopy()
	d := Delta{From: from, To: to}
	vantages := append([]string(nil), b.agg.Vantages()...)
	for _, v := range a.agg.Vantages() {
		if !slices.Contains(vantages, v) {
			vantages = append(vantages, v)
		}
	}
	for _, v := range vantages {
		vd := VantageDelta{Vantage: v}
		for dom := range bBlocked[v] {
			if !aBlocked[v][dom] {
				vd.Added = append(vd.Added, dom)
			}
		}
		for dom := range aBlocked[v] {
			if !bBlocked[v][dom] {
				vd.Removed = append(vd.Removed, dom)
			}
		}
		sort.Strings(vd.Added)
		sort.Strings(vd.Removed)
		if len(vd.Added) > 0 || len(vd.Removed) > 0 {
			d.Vantages = append(d.Vantages, vd)
		}
	}
	return d, nil
}
