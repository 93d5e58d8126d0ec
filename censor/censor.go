// Package censor is the public measurement API of the reproduction.
//
// A Session binds a simulated Indian Internet (the world of Yadav et al.,
// IMC 2018) to a measurement configuration. Individual measurements run
// synchronously on the session's world via [Session.Measure]; campaigns —
// many vantages × many detectors × many domains, the shape of the paper's
// months-long study — run through [Session.Run], which fans tasks out over
// a deterministic worker pool and streams uniform [Result] records back in
// a stable order. A campaign executed with [WithWorkers](N) produces
// byte-identical output to the same campaign executed sequentially.
//
// Detectors live in a registry: every analysis of the paper is a named
// [Measurement] — the five probe detectors ("dns", "http", "https",
// "tcp", "collateral") plus the promoted subsystems "evasion" (§5),
// "ooni" (§6.2) and "fingerprint" (§4) — resolvable with [Lookup],
// enumerable with [Names], and extensible with [Register]. Detectors
// with structured findings attach typed payloads ([EvasionDetail],
// [OONIDetail], [FingerprintDetail]) to [Result.Detail]; recover them
// with [DetailAs].
//
// Campaign output flows through pluggable [Sink]s ([Stream.Drain]):
// [JSONLSink] and [CSVSink] stream records, [AggregateSink] folds them
// into per-vantage/per-mechanism tallies — the paper's summary-table
// shapes — in memory.
//
// Worlds are built from scenarios: a [Scenario] is a JSON-serializable
// spec of global sizing plus per-ISP censorship behaviour (mechanism,
// middlebox deployment and consistency, blocklists, resolver poisoning,
// transit links), compiled to a packet-level world by [WithScenario].
// Presets live in their own registry ([RegisterScenario] /
// [LookupScenario] / [Scenarios]): "paper-2018" and "small" are the
// paper's calibration, and "dns-only", "all-interceptive" and
// "no-censorship" cover regimes the study never observed. The paper is
// one point in the scenario space, not the shape of the API.
//
// A typical session:
//
//	sess, _ := censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario("small")))
//	stream, _ := sess.Run(ctx, censor.Campaign{
//		Domains:      sess.PBWDomains()[:50],
//		Measurements: []censor.Measurement{censor.HTTP(), censor.DNS()},
//	}, censor.WithWorkers(4))
//	for res, err := range stream.All() {
//		if err != nil {
//			return err // the campaign ended before every result arrived
//		}
//		fmt.Println(res.Domain, res.Blocked, res.Mechanism)
//	}
//
// Determinism: every task of a campaign (one vantage running one
// measurement over the campaign's domains) executes inside its own
// freshly built world seeded from the session's configuration, so task
// results are independent of scheduling, and the merger emits them in
// task order. This is what makes parallel campaigns reproducible — and it
// is the seam later scaling work (sharding, caching, remote backends)
// plugs into.
package censor

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ispnet"
	"repro/internal/probe"
	"repro/obs"
)

// StudyISPs are the nine ISPs of the study, in the paper's order: the
// default vantage set for campaigns.
var StudyISPs = []string{
	"Airtel", "Idea", "Vodafone", "Jio", "MTNL", "BSNL", "NKN", "Sify", "Siti",
}

// config carries session and campaign settings; Options mutate it.
type config struct {
	world    ispnet.Config
	scenario Scenario
	err      error // deferred option error, surfaced by NewSession/Run
	timeout  time.Duration
	attempts int
	// vantages nil means "not chosen": NewSession falls back to the
	// scenario's default vantage set.
	vantages []string
	workers  int
	// freshReplicas disables the campaign world pool, rebuilding a world
	// per task — the pre-pooling behaviour, kept (unexported) so the
	// benchmarks and the determinism tests can compare against it.
	freshReplicas bool
	// pcapDir, when set, makes campaign tasks record the vantage client's
	// packets into <pcapDir>/<vantage>_<kind>.pcap files.
	pcapDir string
	// obs, when set, receives campaign telemetry: each task's world-metric
	// delta is merged in, and the runner's own process-side instruments
	// (task timing, merge wait, replica pool traffic) live here too.
	obs *obs.Registry
	// trace, when set, records per-worker task spans and merge-wait spans
	// (wall-clock timebase).
	trace *obs.Tracer
}

func defaultConfig() config {
	return config{
		scenario: mustScenario("paper-2018"),
		world:    ispnet.DefaultConfig(),
		timeout:  3 * time.Second,
		workers:  1,
	}
}

// Option configures a Session or overrides its defaults for one campaign.
type Option func(*config)

// WithScenario builds the session's world from a scenario spec — a
// registered preset from LookupScenario, or any Scenario the caller
// defined in Go or unmarshalled from JSON. The spec is validated and
// compiled here; an invalid one fails NewSession with the validation
// error. The scenario's Vantages (or, when empty, its full ISP list)
// becomes the default campaign vantage set unless WithVantages overrides
// it.
func WithScenario(s Scenario) Option {
	return func(c *config) {
		// Full spec validation (including the censor-layer Vantages
		// field), then the lowering to a world config.
		if err := s.Validate(); err != nil {
			c.err = fmt.Errorf("censor: %w", err)
			return
		}
		world, err := s.lower().Compile()
		if err != nil {
			c.err = fmt.Errorf("censor: %w", err)
			return
		}
		c.world = world
		c.scenario = s.Clone()
	}
}

// WithSeed reseeds the world's deterministic engine.
func WithSeed(seed int64) Option {
	return func(c *config) {
		c.world.Seed = seed
		c.scenario.Seed = seed
	}
}

// WithTimeout bounds every network wait a probe performs.
func WithTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithAttempts sets the per-fetch retry count detectors use to beat
// wiretap race losses (0 keeps each detector's paper-calibrated default).
func WithAttempts(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.attempts = n
		}
	}
}

// WithVantages sets the vantage ISPs campaigns fan out over, in order.
// The default is the nine studied ISPs (StudyISPs). Direct access via
// Session.Vantage/Measure is not restricted by this list.
func WithVantages(isps ...string) Option {
	return func(c *config) {
		if len(isps) > 0 {
			c.vantages = append([]string(nil), isps...)
		}
	}
}

// WithPcap makes campaign tasks capture the vantage client's packets into
// classic .pcap files under dir, one per (vantage, measurement) task,
// named <vantage>_<kind>.pcap. Timestamps are virtual, so for a given
// scenario the files are byte-identical run to run and across worker
// counts — golden artifacts, same contract as the result stream.
//
// The directory is created and probed for writability when the option is
// applied; an unusable path surfaces as an error from NewSession or Run
// rather than as silent capture loss mid-campaign.
func WithPcap(dir string) Option {
	return func(c *config) {
		if dir == "" {
			c.err = fmt.Errorf("censor: WithPcap: empty directory")
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.err = fmt.Errorf("censor: WithPcap: %w", err)
			return
		}
		probe, err := os.CreateTemp(dir, ".pcap-probe-*")
		if err != nil {
			c.err = fmt.Errorf("censor: WithPcap: directory not writable: %w", err)
			return
		}
		probe.Close()
		os.Remove(probe.Name())
		c.pcapDir = dir
	}
}

// WithWorkers sets campaign parallelism. Results are byte-identical for
// every N ≥ 1; only wall-clock time changes.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithTelemetry aggregates campaign telemetry into reg. Two kinds of
// series land there. World metrics (sim_*, netsim_*, middlebox_*,
// trafficgen_* — scheduler traffic, packet counts, flow-table pressure)
// are merged in per task as each task's world delta; they count virtual
// events only, so their sums are byte-identical across worker counts and
// replica pooling. Process metrics (censor_* — task/merge wall timing,
// replica pool hits and builds) describe the runner itself and
// legitimately vary run to run. The same registry may serve many
// campaigns and a monitor /metrics endpoint concurrently.
func WithTelemetry(reg *obs.Registry) Option {
	return func(c *config) { c.obs = reg }
}

// WithTrace records campaign execution spans into tr: one span per task
// (named <vantage>/<kind>, on the worker's trace thread) and one
// merge-wait span per task the merger had to block for. Spans are
// stamped with obs.WallClock — campaign tracing profiles the runner, not
// the simulation, so unlike the result stream it is not deterministic.
// Export with Tracer.WriteChromeTrace (Perfetto) or WriteJSONL.
func WithTrace(tr *obs.Tracer) Option {
	return func(c *config) {
		if tr != nil {
			tr.SetClock(obs.WallClock)
		}
		c.trace = tr
	}
}

// Session binds one simulated world to a measurement configuration. The
// session's own world backs Measure and Vantage; campaign tasks build
// isolated replicas of it (same seed, same sizing) so they can run
// concurrently without sharing the single-threaded simulation engine.
//
// Concurrency: Measure calls serialize on the shared world and may be
// issued from multiple goroutines. Probes reached through Vantage drive
// that same world WITHOUT the lock — do not use them concurrently with
// Measure or with each other. Campaigns take no lock at all; they scale
// across workers on replica worlds instead.
type Session struct {
	cfg config

	mu    sync.Mutex // guards world: the sim engine is single-threaded
	world *ispnet.World

	// replicaMu guards replicas: reset replica worlds parked between
	// campaigns, so back-to-back Runs (the censord scheduler's recurring
	// firings, benchmark loops) stop paying world builds entirely. Every
	// parked world satisfies the Reset contract — indistinguishable from a
	// fresh build — which is what keeps cross-run pooling invisible in the
	// output.
	replicaMu sync.Mutex
	replicas  []*ispnet.World
}

// replicaPoolMax bounds how many reset replica worlds a session parks
// between campaigns.
const replicaPoolMax = 16

// takeReplica checks a parked replica world out of the session pool.
func (s *Session) takeReplica() *ispnet.World {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if n := len(s.replicas); n > 0 {
		w := s.replicas[n-1]
		s.replicas[n-1] = nil
		s.replicas = s.replicas[:n-1]
		return w
	}
	return nil
}

// parkReplica checks a reset replica world back in for the next campaign.
func (s *Session) parkReplica(w *ispnet.World) {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if len(s.replicas) < replicaPoolMax {
		s.replicas = append(s.replicas, w)
	}
}

// NewSession builds the world and validates the configuration.
func NewSession(ctx context.Context, opts ...Option) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.vantages == nil {
		cfg.vantages = defaultVantages(cfg.scenario)
	}
	// Validate vantages against the profile list before paying for the
	// world build, so a typo fails instantly even at paper scale — the
	// error lists what this world offers.
	avail := make([]string, 0, len(cfg.world.Profiles))
	known := make(map[string]bool, len(cfg.world.Profiles))
	for i := range cfg.world.Profiles {
		avail = append(avail, cfg.world.Profiles[i].Name)
		known[cfg.world.Profiles[i].Name] = true
	}
	for _, name := range cfg.vantages {
		if !known[name] {
			return nil, fmt.Errorf("censor: unknown vantage ISP %q (available: %s)",
				name, strings.Join(avail, ", "))
		}
	}
	return &Session{cfg: cfg, world: ispnet.NewWorld(cfg.world)}, nil
}

// World exposes the session's shared world (in-repo callers: oracle
// access for evaluation, raw endpoints for packet-level demos). The world
// is bound to a single-threaded engine; serialize access with the
// session's measurement calls.
//
//repolint:allow apisurface -- documented oracle hatch; evaluation code needs ground truth the clean surface hides
func (s *Session) World() *ispnet.World { return s.world }

// AcquireWorld checks the session's shared world out to an external
// serialized driver — the netbridge pump goroutine — and returns it with a
// release func. The caller owns the world until release: Measure blocks
// for the duration (campaigns are unaffected; they run on replicas).
// Release is idempotent. This is the bridge hatch: everything else about
// the clean surface stays internal-free, but seating real net.Conn
// endpoints on the simulation requires handing the packet-level world to
// exactly one foreign goroutine at a time.
//
//repolint:allow apisurface -- documented bridge hatch; netbridge seats real sockets on the session world under this lock
func (s *Session) AcquireWorld() (*ispnet.World, func()) {
	s.mu.Lock()
	// The lock serializes all world use; adopt it for the acquiring side.
	s.world.Rebind()
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.world.Rebind()
			s.mu.Unlock()
		})
	}
	return s.world, release
}

// Scenario returns a copy of the scenario this session's world was built
// from — the spec campaign workers replicate.
func (s *Session) Scenario() Scenario { return s.cfg.scenario.Clone() }

// Vantages returns the session's configured vantage ISPs.
func (s *Session) Vantages() []string {
	return append([]string(nil), s.cfg.vantages...)
}

// PBWDomains returns the world's potentially-blocked-website list, the
// paper's 1200-domain measurement population.
func (s *Session) PBWDomains() []string {
	return s.world.Catalog.PBWDomains()
}

// Vantage returns a measurement vantage inside the named ISP, bound to
// the session's shared world.
func (s *Session) Vantage(name string) (*Vantage, error) {
	return newVantage(s.world, name, s.cfg)
}

// MustVantage is Vantage for vantages known to exist (demo binaries,
// tests); it panics on an unknown ISP.
func MustVantage(s *Session, name string) *Vantage {
	v, err := s.Vantage(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Measure runs one measurement for each domain from the named vantage on
// the session's shared world, synchronously and in order, honouring ctx
// between domains. For fan-out across vantages or detectors use Run.
func (s *Session) Measure(ctx context.Context, vantage string, m Measurement, domains ...string) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Holding mu serializes all world use; adopt it for this goroutine.
	s.world.Rebind()
	v, err := s.Vantage(vantage)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(domains))
	for _, d := range domains {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, m.Measure(ctx, v, d))
	}
	return out, nil
}

// Vantage is a measurement client inside one ISP. Vantages returned by
// Session.Vantage share the session's world and must not be used
// concurrently with each other; campaign workers get private ones.
type Vantage struct {
	name  string
	world *ispnet.World
	probe *probe.Probe
	// classifier caches §3.2 Tor-verifications across this vantage's
	// measurements, like the paper's fleet scans.
	classifier *probe.AnswerClassifier
}

func newVantage(w *ispnet.World, name string, cfg config) (*Vantage, error) {
	isp := w.ISP(name)
	if isp == nil {
		return nil, fmt.Errorf("censor: unknown vantage ISP %q", name)
	}
	p := probe.New(w, isp)
	p.Timeout = cfg.timeout
	p.Attempts = cfg.attempts
	return &Vantage{name: name, world: w, probe: p, classifier: p.NewAnswerClassifier()}, nil
}

// Name returns the vantage's ISP name.
func (v *Vantage) Name() string { return v.name }

// Probe exposes the underlying measurement toolkit for flows the uniform
// Measurement interface does not cover (tracers, trigger batteries,
// resolver sweeps).
//
//repolint:allow apisurface -- documented oracle hatch; demos and detectors-in-progress reach the raw toolkit here
func (v *Vantage) Probe() *probe.Probe { return v.probe }

// World exposes the world this vantage measures in.
//
//repolint:allow apisurface -- documented oracle hatch; evaluation code needs ground truth the clean surface hides
func (v *Vantage) World() *ispnet.World { return v.world }
