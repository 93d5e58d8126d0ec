package censor

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"weak"
)

// drainOutputs runs one small campaign and drains it into JSONL, CSV
// and aggregate sinks.
func drainOutputs(t *testing.T, s *Session, opts ...Option) (jsonl, csv []byte, summary string) {
	t.Helper()
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:24],
		Measurements: []Measurement{DNS(), HTTP()},
	}, append([]Option{WithVantages("Airtel", "Idea", "Vodafone")}, opts...)...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var jb, cb bytes.Buffer
	agg := NewAggregateSink()
	if err := stream.Drain(NewJSONLSink(&jb), NewCSVSink(&cb), agg); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return jb.Bytes(), cb.Bytes(), agg.Summary()
}

// TestDrainBatchedWorkerIdentity pins the parallelism contract on the
// batch path: workers=1 and workers=8 drains are byte-identical.
func TestDrainBatchedWorkerIdentity(t *testing.T) {
	s := session(t)
	j1, c1, s1 := drainOutputs(t, s, WithWorkers(1))
	j8, c8, s8 := drainOutputs(t, s, WithWorkers(8))
	if !bytes.Equal(j1, j8) {
		t.Error("JSONL output differs workers 1 vs 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("CSV output differs workers 1 vs 8")
	}
	if s1 != s8 {
		t.Error("summary differs workers 1 vs 8")
	}
}

// TestDrainBatchedFreshReplicaIdentity checks the batch path against
// per-task fresh worlds: pooling plus batching changes nothing in the
// output bytes.
func TestDrainBatchedFreshReplicaIdentity(t *testing.T) {
	s := session(t)
	pj, pc, ps := drainOutputs(t, s)
	fj, fc, fs := drainOutputs(t, s, withFreshReplicaWorlds())
	if !bytes.Equal(pj, fj) {
		t.Error("JSONL output differs pooled vs fresh replicas")
	}
	if !bytes.Equal(pc, fc) {
		t.Error("CSV output differs pooled vs fresh replicas")
	}
	if ps != fs {
		t.Error("summary differs pooled vs fresh replicas")
	}
}

// cancelSink cancels a context after its first batch, then keeps
// accepting writes — the consumer-cancels-mid-drain shape.
type cancelSink struct {
	cancel  context.CancelFunc
	batches int
}

func (c *cancelSink) WriteBatch([]Result) error {
	c.batches++
	if c.batches == 1 {
		c.cancel()
	}
	return nil
}

func (c *cancelSink) Flush() error { return nil }

// TestDrainBatchedContextCancel cancels the campaign context from
// inside a WriteBatch call mid-drain: Drain must terminate (no stuck
// workers behind the batch channel) and report the cancellation.
func TestDrainBatchedContextCancel(t *testing.T) {
	s := session(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := s.Run(ctx, Campaign{
		Domains:      s.PBWDomains()[:64],
		Measurements: []Measurement{DNS(), HTTP()},
	}, WithVantages("Airtel", "Idea", "Vodafone"), WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sink := &cancelSink{cancel: cancel}
	// 6 tasks against a 2-batch stream buffer: the merger cannot have
	// emitted every batch when the first one lands in the sink, so the
	// cancellation deterministically strikes a live campaign.
	if err := stream.Drain(sink); err != context.Canceled {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
	if sink.batches == 0 {
		t.Fatal("sink saw no batches")
	}
}

// weakSink records weak pointers to each delivered batch's first result
// without retaining any strong reference to the batch.
type weakSink struct {
	ptrs []weak.Pointer[Result]
}

func (w *weakSink) WriteBatch(rs []Result) error {
	if len(rs) > 0 {
		w.ptrs = append(w.ptrs, weak.Make(&rs[0]))
	}
	return nil
}

func (w *weakSink) Flush() error { return nil }

// TestCampaignReleasesTaskSlices is the retention regression test for
// the merger: emitted slots are nilled and batch backing arrays live
// only as long as the stream's free list. Once the stream is gone, no
// task slice may remain reachable.
func TestCampaignReleasesTaskSlices(t *testing.T) {
	s := session(t)
	// Drain inside a closure so no local keeps the stream or a batch
	// rooted when the GC runs below.
	ptrs := func() []weak.Pointer[Result] {
		stream, err := s.Run(context.Background(), Campaign{
			Domains:      s.PBWDomains()[:32],
			Measurements: []Measurement{DNS(), HTTP()},
		}, WithVantages("Airtel", "Idea", "Vodafone"), WithWorkers(4))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		sink := &weakSink{}
		if err := stream.Drain(sink); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return sink.ptrs
	}()
	if len(ptrs) == 0 {
		t.Fatal("no batches observed")
	}
	// Two cycles: the first reclaims the stream and its free list, the
	// second the arrays that list was keeping alive.
	runtime.GC()
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Fatalf("task slice %d of %d still reachable after drain + GC", i, len(ptrs))
		}
	}
}
