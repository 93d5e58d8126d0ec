package monitor

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/censor"
)

// BenchmarkStoreIngest prices one result ingestion — a one-element
// WriteBatch: ring append plus the write-time roll-ups (run counters,
// blocked sets, tally fold). Memory
// is bounded by construction — the rings evict, the roll-ups count — so
// steady-state allocations should stay near zero however long the
// observatory runs; BENCH_monitor.json records the baseline.
func BenchmarkStoreIngest(b *testing.B) {
	vantages := []string{"Airtel", "Idea", "Vodafone", "MTNL"}
	measurements := []string{"dns", "http"}
	const domains = 256
	results := make([]censor.Result, 0, len(vantages)*len(measurements)*domains)
	for _, v := range vantages {
		for _, m := range measurements {
			for d := 0; d < domains; d++ {
				r := censor.Result{
					Vantage: v, Measurement: m,
					Domain:  fmt.Sprintf("site-%04d.example", d),
					Blocked: d%3 == 0,
				}
				if r.Blocked {
					r.Mechanism = censor.MechanismNotification
					r.Censor = v
				}
				results = append(results, r)
			}
		}
	}

	store := NewStore(WithRingSize(512))
	sink := store.Begin("bench", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(results)
		if err := sink.WriteBatch(results[j : j+1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "results/s")
	if st := store.Stats(); st.Results > len(vantages)*len(measurements)*512 {
		b.Fatalf("ring bound violated: %d raw results retained", st.Results)
	}
}

// benchResults builds one vantage's worth of ingestible results.
func benchResults(vantage string, n int) []censor.Result {
	out := make([]censor.Result, 0, n)
	for d := 0; d < n; d++ {
		r := censor.Result{
			Vantage: vantage, Measurement: "dns",
			Domain:  fmt.Sprintf("site-%04d.example", d),
			Blocked: d%3 == 0,
		}
		if r.Blocked {
			r.Mechanism = censor.MechanismNotification
			r.Censor = vantage
		}
		out = append(out, r)
	}
	return out
}

// BenchmarkStoreIngestParallel prices concurrent ingestion — the shape
// censord takes when several campaigns drain at once. Each goroutine
// ingests its own run under its own vantage, so with the sharded store
// writers contend only on the global sequence counter; run with
// -cpu=1,2,4 to read the scaling. Compare against BenchmarkStoreIngest
// for the single-writer baseline.
//
// This benchmark is too narrow to judge the sharding: on a shared 2-core
// VM it put the 64-shard store and a single-RWMutex store at 288 and
// 300 ns/op with -cpu=2, while the censord-ingest workload of
// bench/run.sh (loopback HTTP, realistic batches) showed the single lock
// losing about a quarter of pushes/s and doubling push p99. Use that workload for
// store decisions.
func BenchmarkStoreIngestParallel(b *testing.B) {
	store := NewStore(WithRingSize(512))
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		results := benchResults(fmt.Sprintf("vantage-%d", id), 256)
		sink := store.Begin(fmt.Sprintf("bench-%d", id), "bench")
		i := 0
		for pb.Next() {
			j := i % len(results)
			if err := sink.WriteBatch(results[j : j+1]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "results/s")
}

// BenchmarkStoreIngestBatch prices the path a campaign drain takes:
// whole task slices per WriteBatch call, one run-lock round-trip and
// (per key group) one shard lock each.
func BenchmarkStoreIngestBatch(b *testing.B) {
	store := NewStore(WithRingSize(512))
	sink := store.Begin("bench", "bench")
	batch := benchResults("Airtel", 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "results/s")
}
