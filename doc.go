// Package repro reproduces "Where The Light Gets In: Analyzing Web
// Censorship Mechanisms in India" (Yadav et al., IMC 2018) as a Go
// library: a deterministic packet-level simulation of the nine studied
// ISPs and their censorship infrastructure, the paper's measurement
// toolkit, an OONI web_connectivity replica, and the anti-censorship
// techniques of §5.
//
// The root package holds only the benchmark harness (bench_test.go), one
// benchmark per table and figure in the paper's evaluation. The public
// API is the top-level censor package — a context-aware measurement
// session whose detectors live in an extensible registry (censor.Register
// / Lookup / Names; every analysis of the paper is a named measurement,
// from the five probe detectors to evasion, ooni and fingerprint), with
// concurrent deterministic campaigns streaming to pluggable sinks (JSONL,
// CSV, in-memory aggregation). The library underneath lives in internal/.
//
// Worlds come from the scenario layer: censor.Scenario is a public,
// JSON-serializable world spec (sizing plus per-ISP censorship behaviour)
// compiled down to the packet-level simulation, with a preset registry
// (censor.RegisterScenario / LookupScenario / Scenarios) in which the
// paper's calibration is just the "paper-2018" entry next to regimes the
// study never observed (dns-only, all-interceptive, a no-censorship
// control). Campaign workers pool world replicas — one build lazily per
// task-picking worker, engine-level reset between tasks, reset replicas
// parked on the session across campaigns — so parallel campaigns stay
// byte-identical to sequential ones while building at most min(workers,
// tasks) worlds, and usually none after the first run. The stable-order
// merger moves whole task batches, not results: one channel send per
// task, emitted slots nilled and recycled through a per-stream free
// list. Streams have one delivery path: Stream.All ranges over the
// batches result by result, and Stream.Drain hands each batch to every
// censor.Sink in a single WriteBatch call — the only method a sink
// writes through — so result storage stays O(workers) and allocations
// stay flat as workers grow, without loosening the byte-identity
// contract.
//
// Scenarios can seat synthetic user populations (internal/trafficgen):
// per-ISP PopulationSpecs — user counts, DNS/HTTP/HTTPS request mix,
// exponential think times, Zipf domain popularity over the shared site
// list — compile to generator hosts on the ISP's edges whose flows cross
// the same links and middlebox flow tables the campaigns measure. Flow
// tables are bounded (per-ISP FlowCapacity) with idle expiry plus LRU
// eviction, so population load makes stateful realism measurable: a
// dallying connection's state can be displaced and a blocklisted request
// then sails past the censor — an eviction-induced miss an idle world
// never shows, reproduced deterministically because background traffic
// draws from the same seeded engine as everything else.
// censor.ApplyLoad overlays a load directive ("users=10000,capacity=2048")
// onto any scenario, surfaced as -load on censorscan and censord; the
// "paper-2018-loaded" preset is the paper calibration under an 11k-user
// population.
//
// Underneath, the simulation engine (internal/sim) is built for the
// packet hot path: events live by value in a recycled arena behind a
// binary heap of slot indices, cancellation hands out generation-counted
// timers, and packet hops are scheduled closure-free through
// ScheduleCall, with transient wire bytes drawn from a per-network free
// list. Steady state, a forwarded packet allocates nothing — the
// property the netsim zero-alloc test and the CI benchmark gate pin
// down. See README.md's Performance section.
//
// The netbridge package opens the simulated internet to real code: it
// seats userspace endpoints on bridge hosts inside the vantage ISPs and
// exposes them as net.Conn / net.Listener / a DialContext for
// http.Transport, so unmodified Go networking code experiences the
// censors first-hand. A single pump goroutine owns the engine and
// advances virtual time while application goroutines block; every sim
// touch crosses a serialized boundary (the bridgeboundary analyzer
// keeps it that way). Flows can be captured to classic .pcap files with
// virtual timestamps — netbridge.PcapSink on a bridge dialer, or
// censor.WithPcap / censorscan -pcap for deterministic per-task campaign
// captures. The bridge edge itself is deliberately outside the
// determinism contract: wall-clock scheduling decides how real
// goroutines interleave with virtual time.
//
// The design contracts above are mechanically enforced by the
// repolint analyzer suite (internal/analysis, driven by cmd/repolint and
// run in CI before the tests):
//
//   - Determinism: the simulation packages read no wall clock, draw from
//     no global random source, and never let map iteration order reach
//     scheduling or output (simdeterminism).
//   - Zero-alloc hot path: functions marked //repolint:hotpath use
//     ScheduleCall instead of closures, pooled buffers instead of
//     make([]byte), and no fmt or string concatenation (hotpathalloc).
//   - Value-only timers: *sim.Timer never appears; the generation-counted
//     handle is copied, and Stop on a stale copy is safe (timerbyvalue).
//   - Serialized sinks: censor.Sink.WriteBatch implementations spawn no
//     goroutines and mutate no package-level state — Stream.Drain is the
//     serialization point (sinkcontract).
//   - Clean surface: no repro/internal type appears in the exported API
//     of censor, monitor or netbridge, except the waived oracle and
//     bridge hatches (apisurface).
//   - Bridge boundary: in netbridge, only functions marked
//     //repolint:pump — the ones the pump goroutine runs — may call into
//     the simulation packages (bridgeboundary).
//
// Deliberate exceptions carry //repolint:allow <key> -- <reason> waivers
// in the source they except; stale waivers are themselves findings.
//
// Everything above is observable through the obs package: zero-alloc
// counters, gauges and power-of-two histograms plus a span tracer, all
// nil-safe so an uninstrumented run pays a single pointer check. The
// engine owns a per-world registry counting only virtual events —
// reset with the world, merged into the campaign's per-process
// registry after every task — so metrics stay byte-identical across
// worker counts and replica pooling, a property the simdeterminism
// analyzer and the campaign determinism test both pin down. Campaign
// spans ride wall time; netbridge spans ride engine time, which lines
// trace exports up with pcap timestamps. Surfaces: censord serves
// Prometheus text at /metrics (and expvar at /debug/vars), censorscan
// -trace writes Chrome trace_event JSON for Perfetto with -metrics-dump
// printing the final registry, and censor.WithTelemetry /
// netbridge.WithTelemetry hand any registry to library callers. See
// README.md's Observability section.
//
// The monitor package is the service layer over all of that: a
// Scheduler for recurring campaigns, a bounded concurrency-safe result
// Store (per-key ring buffers spread over 64 hashed shards, write-time
// per-run tallies behind per-run locks, monotonic run epochs,
// blocklist-churn deltas between runs — so concurrent campaigns
// batch-ingest without serializing on one mutex, while the single-writer
// path stays zero-alloc), and the HTTP handler the cmd/censord daemon
// serves — healthz plus versioned /v1 endpoints for scenarios, runs,
// campaign triggers, filtered JSONL results and aggregate summaries.
// See README.md for a quickstart.
package repro
