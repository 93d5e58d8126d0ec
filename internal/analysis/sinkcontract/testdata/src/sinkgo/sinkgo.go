// Package sinkgo is the sinkcontract fixture: Sink implementations whose
// WriteBatch breaks the Drain-serializes contract, next to a compliant
// one and a WriteBatch method on a type that is not a Sink at all.
package sinkgo

import (
	"time"

	"repro/censor"
)

// total is the package-level state a well-behaved sink must not touch.
var total int

// asyncSink violates the contract three ways.
type asyncSink struct {
	n int
}

func (s *asyncSink) WriteBatch(rs []censor.Result) error {
	go func() { // want `Sink.WriteBatch spawns a goroutine`
		s.n += len(rs)
	}()
	time.AfterFunc(time.Millisecond, s.flush) // want `time.AfterFunc inside Sink.WriteBatch`
	total += len(rs)                          // want `Sink.WriteBatch mutates package-level total`
	return nil
}

func (s *asyncSink) Flush() error { return nil }

func (s *asyncSink) flush() {}

// countSink keeps all state on the instance: allowed.
type countSink struct {
	batches int
	byDom   map[string]int
}

func (s *countSink) WriteBatch(rs []censor.Result) error {
	s.batches++
	if s.byDom == nil {
		s.byDom = make(map[string]int)
	}
	for _, r := range rs {
		s.byDom[r.Domain]++
	}
	return nil
}

func (s *countSink) Flush() error { return nil }

// notASink has a WriteBatch method but no Flush, so it does not
// implement censor.Sink and the contract does not apply.
type notASink struct{}

func (notASink) WriteBatch(rs []censor.Result) error {
	go func() {}()
	total++
	return nil
}

// waivedSink shows the escape hatch with its mandatory reason.
type waivedSink struct{}

func (waivedSink) WriteBatch(rs []censor.Result) error {
	//repolint:allow sink -- exercising the waiver path in the fixture
	go func() {}()
	return nil
}

func (waivedSink) Flush() error { return nil }
