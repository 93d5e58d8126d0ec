package trafficgen_test

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkBackgroundLoad measures how real time scales with population
// size: each iteration advances the same two-router load world by one
// virtual second. flows/vsec is the generated load level, evictions and
// flowtable the pressure it puts on the bounded middlebox table. The
// users=0 case is the idle-world floor every other point is compared
// against (the users-vs-throughput curve in BENCH_campaign.json).
func BenchmarkBackgroundLoad(b *testing.B) {
	for _, users := range []int{0, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			w := buildLoadWorld(b, 3, users)
			w.eng.RunFor(3 * time.Second) // settle past the first deadline cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.eng.RunFor(time.Second)
			}
			b.StopTimer()
			virtual := float64(b.N) + 3
			b.ReportMetric(float64(w.flows.Value())/virtual, "flows/vsec")
			b.ReportMetric(float64(w.evictions.Value()), "evictions")
			b.ReportMetric(float64(w.occupancy.Value()), "flowtable")
		})
	}
}
