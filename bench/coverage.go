package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"time"

	"repro/censor"
	"repro/internal/experiments"
)

// coverageISPs are the Table 2 ISPs, in the table's order.
var coverageISPs = experiments.HTTPCensors

// runCoverage regenerates the paper's Table 2 (HTTP filtering coverage,
// consistency and middlebox type) on a fresh paper-scale session per rep.
// It runs serially on one world: probe path scans, tcpsim and the
// middleboxes do the work, with no replicas, merge or sinks. Table 2 has
// no input but the calibrated world, so the seed changes nothing. An op is
// one Table 2.
func runCoverage(r *run) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	opt := experiments.DefaultOptions()
	if r.tiny {
		opt = experiments.QuickOptions()
	}
	newSession := func() (*censor.Session, func(), error) {
		sess, err := censor.NewSession(ctx, censor.WithScenario(opt.Scenario))
		return sess, func() {}, err
	}
	_, release, err := repeatSetup(r.params, o, newSession)
	release()
	if err != nil {
		return nil, err
	}

	if err := r.begin(); err != nil {
		return nil, err
	}
	for elapsed := time.Duration(0); elapsed < r.seconds || len(o.latencies) < 2; {
		sess, _, err := newSession()
		if err != nil {
			r.end()
			return nil, err
		}
		suite := experiments.NewSuiteWith(sess, opt)
		span := r.span("table2", 120)
		start := time.Now()
		rows := suite.Table2()
		dt := time.Since(start)
		r.spans.Finish(span)
		if r.traced {
			sess.World().Obs().AddTo(r.reg)
		}
		o.latencies = append(o.latencies, dt)
		o.rates = append(o.rates, 1/dt.Seconds())
		elapsed += dt
		o.ops++
		o.attempted++
		sum := sha256.Sum256([]byte(experiments.RenderTable2(rows)))
		before := len(o.problems)
		o.checkDigest(r.params, hex.EncodeToString(sum[:]))
		if len(o.problems) > before {
			o.failed++
		}
	}
	r.end()

	if r.traced {
		simLayers(r, float64(o.ops))
		// Each ISP's coverage scan timed alone on a fresh session; what
		// Table 2 spends beyond them is the middlebox-type classification.
		sess, _, err := newSession()
		if err != nil {
			return nil, err
		}
		scans := 0.0
		for _, isp := range coverageISPs {
			v, err := sess.Vantage(isp)
			if err != nil {
				return nil, err
			}
			span := r.span("coverage/"+isp, 121)
			start := time.Now()
			v.Probe().MeasureCoverage(opt.Scan)
			d := time.Since(start).Seconds()
			r.spans.Finish(span)
			r.layers["probe.coverage."+strings.ToLower(isp)+"_s"] = d
			scans += d
		}
		r.layers["experiments.classify_s"] = quantile(o.latencies, 0.5).Seconds() - scans
	}
	return o, nil
}
