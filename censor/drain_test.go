package censor

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ispnet"
)

// errSinkBoom is the mid-stream failure the drain tests inject.
var errSinkBoom = errors.New("sink boom")

// failSink fails every WriteBatch after the first `after` successes and
// records whether Flush ran.
type failSink struct {
	after, batches int
	flushed        bool
}

func (s *failSink) WriteBatch([]Result) error {
	s.batches++
	if s.batches > s.after {
		return errSinkBoom
	}
	return nil
}

func (s *failSink) Flush() error {
	s.flushed = true
	return nil
}

// countSink tallies batches and results and records Flush.
type countSink struct {
	batches, results int
	flushed          bool
}

func (s *countSink) WriteBatch(rs []Result) error {
	s.batches++
	s.results += len(rs)
	return nil
}

func (s *countSink) Flush() error {
	s.flushed = true
	return nil
}

// drainGuarded runs Drain with a deadlock guard: the failure paths must
// terminate, not hang behind blocked workers.
func drainGuarded(t *testing.T, st *Stream, sinks ...Sink) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- st.Drain(sinks...) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not terminate")
		return nil
	}
}

// TestDrainSinkError: a sink whose WriteBatch fails mid-stream must
// cancel the campaign, terminate the drain, flush every sibling sink,
// and surface the sink's error — not the induced cancellation.
func TestDrainSinkError(t *testing.T) {
	s := session(t)
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:16],
		Measurements: []Measurement{HTTP()},
	}, WithVantages("Airtel", "Idea"), WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fail := &failSink{after: 1}
	sibling := &countSink{}
	err = drainGuarded(t, stream, fail, sibling)
	if !errors.Is(err, errSinkBoom) {
		t.Fatalf("Drain returned %v, want the sink error", err)
	}
	if !fail.flushed || !sibling.flushed {
		t.Errorf("flush skipped on the error path: fail=%v sibling=%v", fail.flushed, sibling.flushed)
	}
}

// TestDrainBatchedSinkError pins the batch-boundary semantics. The
// batch is the delivery unit: a sink failing on batch N stops the
// fan-out at that batch boundary, so its siblings never see batch N,
// and every sink is still flushed.
func TestDrainBatchedSinkError(t *testing.T) {
	s := session(t)
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:16],
		Measurements: []Measurement{DNS(), HTTP()},
	}, WithVantages("Airtel", "Idea", "Vodafone"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fail := &failSink{after: 2}
	sibling := &countSink{}
	if err := drainGuarded(t, stream, fail, sibling); !errors.Is(err, errSinkBoom) {
		t.Fatalf("Drain returned %v, want the sink error", err)
	}
	// The failing sink rejected batch 3 before the sibling saw it.
	if sibling.batches != fail.after {
		t.Errorf("sibling saw %d batches, want %d", sibling.batches, fail.after)
	}
	if !sibling.flushed {
		t.Error("sibling sink was not flushed after the failure")
	}
}

// TestDrainCancelledStream: draining a stream whose campaign was already
// cancelled must consume the backlog, flush, and report the campaign's
// cancellation error rather than dropping it.
func TestDrainCancelledStream(t *testing.T) {
	s := session(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// More results than the stream buffer holds, so the campaign cannot
	// complete without a consumer and the cancellation always lands.
	stream, err := s.Run(ctx, Campaign{
		Domains:      s.PBWDomains()[:64],
		Measurements: []Measurement{HTTP()},
	}, WithVantages("Airtel", "Idea", "Vodafone"), WithWorkers(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cancel()
	sink := &countSink{}
	if err := drainGuarded(t, stream, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain returned %v, want context.Canceled", err)
	}
	if !sink.flushed {
		t.Error("sink not flushed after cancelled drain")
	}
}

// TestLazyReplicaPool enforces the pool's build contract: replica worlds
// are built on first task pickup only, so a campaign builds at most
// min(workers, tasks) worlds — idle workers in an oversized pool build
// nothing.
func TestLazyReplicaPool(t *testing.T) {
	s := session(t)
	var builds int32
	orig := newReplicaWorld
	newReplicaWorld = func(cfg ispnet.Config) *ispnet.World {
		atomic.AddInt32(&builds, 1)
		return orig(cfg)
	}
	defer func() { newReplicaWorld = orig }()

	// 1 vantage x 2 measurements = 2 tasks, pool of 16 workers.
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:2],
		Measurements: []Measurement{DNS(), HTTP()},
	}, WithVantages("Airtel"), WithWorkers(16))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	results, err := stream.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if n := atomic.LoadInt32(&builds); n > 2 {
		t.Errorf("campaign with 2 tasks built %d replica worlds, want at most 2", n)
	}
}
