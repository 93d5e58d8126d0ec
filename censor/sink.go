package censor

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sink consumes a campaign's results one task batch at a time.
//
// Concurrency contract: Stream.Drain hands each task's results to every
// sink as one WriteBatch call, in the stream's deterministic order, from
// a single goroutine, and calls Flush once the stream is done — Drain
// serializes all writes, so sinks written only through Drain need no
// internal locking. JSONLSink and CSVSink rely on exactly that and are
// NOT safe for concurrent use from multiple goroutines. AggregateSink
// locks anyway, so it can also fold batches written concurrently from
// application code; monitor's run sinks make the same promise and
// further allow queries concurrent with writes. A caller holding a
// single result passes a one-element slice.
//
// WriteBatch must NOT retain the slice: the stream clears and reuses the
// backing array as soon as WriteBatch returns. Copy the Result values out
// (they are plain values; copying one is safe) if the sink keeps them, as
// monitor.Store does.
type Sink interface {
	// WriteBatch consumes one task's results, in order.
	WriteBatch([]Result) error
	// Flush finalizes buffered output after the last batch.
	Flush() error
}

// BatchSink is Sink under its earlier name. It exists only because the
// benchmark module in bench/ embeds it (timedSink in bench/campaign.go)
// and must build against this API and the one before it; use Sink.
type BatchSink = Sink

// ------------------------------------------------------------------ JSONL

// JSONLSink writes one JSON object per result line — the raw-data shape
// long-running deployments archive.
type JSONLSink struct {
	enc *json.Encoder
}

// NewJSONLSink builds a JSONL sink over a writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// WriteBatch encodes one task's results, one JSON line each.
func (s *JSONLSink) WriteBatch(rs []Result) error {
	for i := range rs {
		if err := s.enc.Encode(&rs[i]); err != nil {
			return fmt.Errorf("censor: jsonl: %w", err)
		}
	}
	return nil
}

// Flush is a no-op: every WriteBatch is already complete output.
func (s *JSONLSink) Flush() error { return nil }

// -------------------------------------------------------------------- CSV

// csvHeader is the fixed column set of CSVSink, one column per Result
// field; Detail is serialized as a JSON object in the last column.
var csvHeader = []string{
	"vantage", "measurement", "domain", "blocked",
	"mechanism", "censor", "diff", "addrs", "error", "detail",
}

// CSVSink writes results as CSV with a fixed header row — the shape
// spreadsheet and dataframe tooling ingests directly.
type CSVSink struct {
	w          *csv.Writer
	headerDone bool
}

// NewCSVSink builds a CSV sink over a writer.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// WriteBatch appends one CSV record per result (and the header before
// the first one).
func (s *CSVSink) WriteBatch(rs []Result) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	for i := range rs {
		r := &rs[i]
		diff := ""
		if r.Diff != 0 {
			diff = strconv.FormatFloat(r.Diff, 'g', -1, 64)
		}
		detail := ""
		if r.Detail != nil {
			b, err := json.Marshal(r.Detail)
			if err != nil {
				return fmt.Errorf("censor: csv: detail: %w", err)
			}
			detail = string(b)
		}
		rec := []string{
			r.Vantage, r.Measurement, r.Domain, strconv.FormatBool(r.Blocked),
			r.Mechanism, r.Censor, diff, strings.Join(r.Addrs, " "), r.Error, detail,
		}
		if err := s.w.Write(rec); err != nil {
			return fmt.Errorf("censor: csv: %w", err)
		}
	}
	return nil
}

func (s *CSVSink) writeHeader() error {
	if s.headerDone {
		return nil
	}
	if err := s.w.Write(csvHeader); err != nil {
		return fmt.Errorf("censor: csv: %w", err)
	}
	s.headerDone = true
	return nil
}

// Flush writes any buffered records through — including the header row
// alone when the stream delivered no results, so the output always
// carries the documented fixed header.
func (s *CSVSink) Flush() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		return fmt.Errorf("censor: csv: %w", err)
	}
	return nil
}

// -------------------------------------------------------------- Aggregate

// Tally is one vantage's aggregate over a campaign: the overall verdict
// counts (the Table 2/3 shapes), plus folds of the detail-bearing
// measurements — the §5 evasion matrix, Table 1 agreement, and the §4
// middlebox fingerprints.
type Tally struct {
	Total, Blocked, Errors int
	// ByMeasurement counts blocked verdicts per detector kind.
	ByMeasurement map[string]int
	// ByMechanism counts blocked verdicts per mechanism (Table 2 shape).
	ByMechanism map[string]int
	// ByCensor counts blocked verdicts per attributed censor — from this
	// vantage's perspective the Table 3 collateral row.
	ByCensor map[string]int

	// Evasion fold (§5): domains measured / baseline-censored / evaded by
	// at least one technique, and per-technique success counts.
	EvasionTried, EvasionBlocked, EvasionEvaded int
	TechniqueSuccess                            map[string]int

	// OONI fold (Table 1): runs, flags, ground truth and agreement.
	OONIRuns, OONIFlagged, OONITruth, OONITruePositive, OONIAgree int

	// Fingerprint fold (§4): observed box types, statefulness and IP-ID
	// signatures among censored domains.
	BoxTypes                map[string]int
	Stateful, IPIDSignature int
}

func newTally() *Tally {
	return &Tally{
		ByMeasurement:    map[string]int{},
		ByMechanism:      map[string]int{},
		ByCensor:         map[string]int{},
		TechniqueSuccess: map[string]int{},
		BoxTypes:         map[string]int{},
	}
}

// Add folds one result into the tally — the single fold AggregateSink
// and monitor's result store share, so their roll-ups can never drift
// apart. Nil count maps are allocated on demand, making the zero Tally
// usable. Add is not safe for concurrent use; callers that share a Tally
// across goroutines must guard it (AggregateSink does).
func (t *Tally) Add(r Result) {
	if t.ByMeasurement == nil {
		t.ByMeasurement = map[string]int{}
		t.ByMechanism = map[string]int{}
		t.ByCensor = map[string]int{}
		t.TechniqueSuccess = map[string]int{}
		t.BoxTypes = map[string]int{}
	}
	t.Total++
	if r.Error != "" {
		t.Errors++
	}
	if r.Blocked {
		t.Blocked++
		t.ByMeasurement[r.Measurement]++
		if r.Mechanism != "" {
			t.ByMechanism[r.Mechanism]++
		}
		if r.Censor != "" {
			t.ByCensor[r.Censor]++
		}
	}
	switch r.Measurement {
	case "evasion":
		t.EvasionTried++
		if r.Blocked {
			t.EvasionBlocked++
		}
		if d, ok := DetailAs[EvasionDetail](r); ok {
			if d.Evaded {
				t.EvasionEvaded++
			}
			for _, o := range d.Techniques {
				if o.Success {
					t.TechniqueSuccess[o.Technique]++
				}
			}
		}
	case "ooni":
		if d, ok := DetailAs[OONIDetail](r); ok {
			t.OONIRuns++
			if r.Blocked {
				t.OONIFlagged++
			}
			if d.TruthBlocked {
				t.OONITruth++
			}
			if r.Blocked && d.TruthBlocked {
				t.OONITruePositive++
			}
			if d.Agrees {
				t.OONIAgree++
			}
		}
	case "fingerprint":
		if d, ok := DetailAs[FingerprintDetail](r); ok {
			if d.BoxType != "" {
				t.BoxTypes[d.BoxType]++
			}
			if d.StatefulChecked && d.Stateful {
				t.Stateful++
			}
			if d.IPID != 0 {
				t.IPIDSignature++
			}
		}
	}
}

// AggregateSink folds results into per-vantage tallies without retaining
// individual records — the in-memory backend behind censorscan's
// -format summary. Summary renders deterministically for a deterministic
// write order, so a parallel campaign drained into an AggregateSink
// summarizes byte-identically to the sequential run.
type AggregateSink struct {
	mu       sync.Mutex
	vantages []string // first-seen order: the campaign's vantage order
	tallies  map[string]*Tally
}

// NewAggregateSink builds an empty aggregate.
func NewAggregateSink() *AggregateSink {
	return &AggregateSink{tallies: map[string]*Tally{}}
}

// WriteBatch folds one task's results into their vantages' tallies under
// a single lock round-trip.
func (s *AggregateSink) WriteBatch(rs []Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range rs {
		t, ok := s.tallies[rs[i].Vantage]
		if !ok {
			t = newTally()
			s.tallies[rs[i].Vantage] = t
			s.vantages = append(s.vantages, rs[i].Vantage)
		}
		t.Add(rs[i])
	}
	return nil
}

// Flush is a no-op; the aggregate lives in memory until read.
func (s *AggregateSink) Flush() error { return nil }

// Vantages returns the vantages seen, in first-write order (the
// campaign's configured vantage order when driven by Stream.Drain).
func (s *AggregateSink) Vantages() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.vantages...)
}

// TallyFor returns a copy of one vantage's tally (zero Tally if unseen).
func (s *AggregateSink) TallyFor(vantage string) Tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tallies[vantage]
	if !ok {
		return Tally{}
	}
	cp := *t
	cp.ByMeasurement = copyCounts(t.ByMeasurement)
	cp.ByMechanism = copyCounts(t.ByMechanism)
	cp.ByCensor = copyCounts(t.ByCensor)
	cp.TechniqueSuccess = copyCounts(t.TechniqueSuccess)
	cp.BoxTypes = copyCounts(t.BoxTypes)
	return cp
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Summary renders the aggregate as the paper-flavoured text tables:
// per-vantage verdicts and mechanisms, then — when the campaign carried
// the corresponding measurements — the evasion matrix, the OONI
// agreement table, and the fingerprint census. Output is deterministic:
// vantages in first-write order, map folds sorted by key.
func (s *AggregateSink) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	total := 0
	for _, t := range s.tallies {
		total += t.Total
	}
	fmt.Fprintf(&b, "Campaign summary: %d results across %d vantages\n", total, len(s.vantages))
	fmt.Fprintf(&b, "%-10s %7s %8s %7s  %s\n", "vantage", "total", "blocked", "errors", "mechanisms")
	for _, v := range s.vantages {
		t := s.tallies[v]
		fmt.Fprintf(&b, "%-10s %7d %8d %7d  %s\n", v, t.Total, t.Blocked, t.Errors, foldCounts(t.ByMechanism))
		if len(t.ByCensor) > 0 {
			fmt.Fprintf(&b, "%-10s %25s %s\n", "", "attributed:", foldCounts(t.ByCensor))
		}
	}

	if s.any(func(t *Tally) bool { return t.EvasionTried > 0 }) {
		b.WriteString("\nEvasion (§5) — successes per technique over baseline-censored domains:\n")
		for _, v := range s.vantages {
			t := s.tallies[v]
			if t.EvasionTried == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s censored=%d/%d evaded=%d  %s\n",
				v, t.EvasionBlocked, t.EvasionTried, t.EvasionEvaded, foldCounts(t.TechniqueSuccess))
		}
	}

	if s.any(func(t *Tally) bool { return t.OONIRuns > 0 }) {
		b.WriteString("\nOONI web_connectivity vs ground truth (Table 1 shape):\n")
		fmt.Fprintf(&b, "%-10s %7s %7s %6s %6s %10s %7s\n",
			"vantage", "runs", "flagged", "truth", "agree", "precision", "recall")
		for _, v := range s.vantages {
			t := s.tallies[v]
			if t.OONIRuns == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s %7d %7d %6d %6d %10s %7s\n",
				v, t.OONIRuns, t.OONIFlagged, t.OONITruth, t.OONIAgree,
				ratio(t.OONITruePositive, t.OONIFlagged), ratio(t.OONITruePositive, t.OONITruth))
		}
	}

	if s.any(func(t *Tally) bool { return len(t.BoxTypes) > 0 || t.Stateful > 0 || t.IPIDSignature > 0 }) {
		b.WriteString("\nMiddlebox fingerprints (§4):\n")
		for _, v := range s.vantages {
			t := s.tallies[v]
			if len(t.BoxTypes) == 0 && t.Stateful == 0 && t.IPIDSignature == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s %s stateful=%d ipid-signature=%d\n",
				v, foldCounts(t.BoxTypes), t.Stateful, t.IPIDSignature)
		}
	}
	return b.String()
}

func (s *AggregateSink) any(pred func(*Tally) bool) bool {
	for _, t := range s.tallies {
		if pred(t) {
			return true
		}
	}
	return false
}

// foldCounts renders a count map as "k=v" pairs sorted by key.
func foldCounts(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

func ratio(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(num)/float64(den))
}
