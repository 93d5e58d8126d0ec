package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"time"

	"repro/censor"
	"repro/netbridge"
)

// blockPageMarker is Idea's notification text.
const blockPageMarker = "This URL has been blocked under instructions of a"

// Limits that keep bridge-http clear of a reproduced hang (README.md,
// "bridge-http and the ephemeral-port hang"): connections that receive the
// block page never release their simulated ephemeral port, and once the
// 32768 ports of one Bridge are all held the next dial spins in the pump.
const (
	getsPerBridge  = 8192 // half of them blocked: 4096 leaked ports per Bridge
	getTimeout     = 5 * time.Second
	bridgeWatchdog = 60 * time.Second // one round takes well under a second
	domainsPerSet  = 4
)

// maxMissRatio bounds the blocked-domain GETs that may get the genuine
// page: about 0.15% do, when the two clients' waits carry virtual time past
// Idea's flow-state timeout while one client's connection sits idle
// (README.md, "Block-page misses"). The bound is about three times that.
const maxMissRatio = 0.005

// domainSets are the Idea-blocked and the uncensored live domains, each
// classified at set-up by one GET.
type domainSets struct {
	blocked, open []string
}

// runBridge drives unmodified net/http clients through netbridge: two
// client goroutines share one Idea Dialer and alternate a blocked domain
// (which must get the block page) and an uncensored one (which must not),
// one dial per GET. Each round of getsPerBridge GETs runs on a fresh
// Session and Bridge, built outside the timed window. The seed orders the
// GETs over the domain sets. An op is one GET.
func runBridge(r *run) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	preset, perBridge := "paper-2018", getsPerBridge
	if r.tiny {
		preset, perBridge = "small", 256
	}
	opts := []censor.Option{censor.WithScenario(censor.MustLookupScenario(preset))}
	sets, release, err := repeatSetup(r.params, o, func() (domainSets, func(), error) {
		sets, err := classifyDomains(ctx, opts)
		return sets, func() {}, err
	})
	defer release()
	if err != nil {
		return nil, err
	}
	sets.blocked, sets.open = seededOrder(sets.blocked, r.seed), seededOrder(sets.open, r.seed)

	var (
		blockedGets, misses int
		elapsed             time.Duration
		bopts               []netbridge.Option
	)
	if r.traced {
		bopts = append(bopts, netbridge.WithTelemetry(r.reg))
	}
	for elapsed < r.seconds {
		sess, err := censor.NewSession(ctx, opts...)
		if err != nil {
			return nil, err
		}
		br, err := netbridge.New(sess, bopts...)
		if err != nil {
			return nil, err
		}
		d, err := br.Dialer("Idea")
		if err != nil {
			br.Close()
			return nil, err
		}
		rs, err := bridgeRound(r, d, sets, perBridge)
		if err != nil {
			// The pump may be stuck; leave the Bridge to process exit.
			return nil, err
		}
		br.Close()
		if r.traced {
			sess.World().Obs().AddTo(r.reg)
		}
		elapsed += rs.elapsed
		o.rates = append(o.rates, float64(len(rs.latencies))/rs.elapsed.Seconds())
		o.latencies = append(o.latencies, rs.latencies...)
		o.ops += len(rs.latencies)
		o.attempted += len(rs.latencies)
		o.failed += len(rs.failures)
		if len(rs.failures) > 0 {
			o.problem("%d GETs failed, first: %v", len(rs.failures), rs.failures[0])
		}
		blockedGets += rs.blocked
		misses += rs.misses
	}
	if mr := ratio(float64(misses), float64(blockedGets)); mr > maxMissRatio {
		o.problem("%d of %d GETs of blocked domains missed the block page (limit %.1f%%)", misses, blockedGets, 100*maxMissRatio)
	}

	if r.traced {
		r.layers["netbridge.get_p99_us"] = us(quantile(o.latencies, 0.99))
		wake := r.reg.Histogram("netbridge_wake_ns")
		r.layers["netbridge.wake_p50_us"] = histQuantile(wake, 0.50) / 1e3
		r.layers["netbridge.wake_p99_us"] = histQuantile(wake, 0.99) / 1e3
		r.layers["netbridge.lease_cuts_per_op"] = ratio(float64(r.reg.Counter("netbridge_lease_cuts_total").Value()), float64(o.ops))
		r.layers["netbridge.block_miss_ratio"] = ratio(float64(misses), float64(blockedGets))
		simLayers(r, float64(o.ops))
		if err := directBridge(ctx, r, opts, sets); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// roundStats is one Bridge's worth of GETs.
type roundStats struct {
	elapsed         time.Duration
	latencies       []time.Duration
	failures        []error
	blocked, misses int
}

// bridgeRound runs gets GETs from two clients over d. A watchdog fails the
// round instead of letting a stuck pump hang the benchmark.
func bridgeRound(r *run, d *netbridge.Dialer, sets domainSets, gets int) (roundStats, error) {
	var (
		per  [2]roundStats
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	if err := r.begin(); err != nil {
		return roundStats{}, err
	}
	span := r.span("bridge-round", 110)
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &per[w]
			c := bridgeClient(d)
			for i := 0; i < gets/len(per); i++ {
				wantBlocked := i%2 == 0
				dom := sets.open[(i/2+w)%len(sets.open)]
				if wantBlocked {
					dom = sets.blocked[(i/2+w)%len(sets.blocked)]
					s.blocked++
				}
				t := time.Now()
				blocked, err := get(c, dom)
				s.latencies = append(s.latencies, time.Since(t))
				switch {
				case err != nil:
					s.failures = append(s.failures, err)
				case wantBlocked && !blocked:
					// The box forgot an idle flow; see maxMissRatio.
					s.misses++
				case !wantBlocked && blocked:
					s.failures = append(s.failures, fmt.Errorf("uncensored %s got the block page", dom))
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(bridgeWatchdog):
		r.end()
		return roundStats{}, fmt.Errorf("watchdog: %d GETs on one Bridge did not finish within %v", gets, bridgeWatchdog)
	}
	out := roundStats{elapsed: time.Since(start)}
	r.spans.Finish(span)
	r.end()
	for _, s := range per {
		out.latencies = append(out.latencies, s.latencies...)
		out.failures = append(out.failures, s.failures...)
		out.blocked += s.blocked
		out.misses += s.misses
	}
	return out, nil
}

// classifyDomains builds a session and a Bridge, then GETs domains in
// catalog order from Idea until it has domainsPerSet block-page domains
// and as many uncensored live ones.
func classifyDomains(ctx context.Context, opts []censor.Option) (domainSets, error) {
	sess, err := censor.NewSession(ctx, opts...)
	if err != nil {
		return domainSets{}, err
	}
	br, err := netbridge.New(sess)
	if err != nil {
		return domainSets{}, err
	}
	defer br.Close()
	d, err := br.Dialer("Idea")
	if err != nil {
		return domainSets{}, err
	}
	c := bridgeClient(d)
	var sets domainSets
	for _, dom := range sess.PBWDomains() {
		blocked, err := get(c, dom)
		switch {
		case err != nil: // dead or unreachable: no use to either set
		case blocked && len(sets.blocked) < domainsPerSet:
			sets.blocked = append(sets.blocked, dom)
		case !blocked && len(sets.open) < domainsPerSet:
			sets.open = append(sets.open, dom)
		}
		if len(sets.blocked) == domainsPerSet && len(sets.open) == domainsPerSet {
			return sets, nil
		}
	}
	return domainSets{}, fmt.Errorf("found %d blocked and %d uncensored domains from Idea, want %d each",
		len(sets.blocked), len(sets.open), domainsPerSet)
}

// directBridge times a bare dial (handshake and close) and a bare resolve
// through a fresh Bridge, outside the GET loop.
func directBridge(ctx context.Context, r *run, opts []censor.Option, sets domainSets) error {
	sess, err := censor.NewSession(ctx, opts...)
	if err != nil {
		return err
	}
	br, err := netbridge.New(sess)
	if err != nil {
		return err
	}
	defer br.Close()
	d, err := br.Dialer("Idea")
	if err != nil {
		return err
	}
	reps := 256
	if r.tiny {
		reps = 8
	}
	var dial, resolve []time.Duration
	var addr netip.Addr
	for range reps {
		t := time.Now()
		addrs, err := d.Resolve(ctx, sets.open[0])
		if err != nil {
			return fmt.Errorf("resolve %s: %w", sets.open[0], err)
		}
		resolve = append(resolve, time.Since(t))
		addr = addrs[0]
	}
	for range reps {
		t := time.Now()
		conn, err := d.DialContext(ctx, "tcp", netip.AddrPortFrom(addr, 80).String())
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		conn.Close()
		dial = append(dial, time.Since(t))
	}
	r.layers["netbridge.dial_p50_us"] = us(quantile(dial, 0.5))
	r.layers["netbridge.resolve_p50_us"] = us(quantile(resolve, 0.5))
	return nil
}

func bridgeClient(d *netbridge.Dialer) *http.Client {
	return &http.Client{
		Transport: &http.Transport{DialContext: d.DialContext, DisableKeepAlives: true},
		Timeout:   getTimeout,
	}
}

// get fetches http://domain/ and reports whether the body is the block
// page; any other answer than the block page or a 200 is an error.
func get(c *http.Client, domain string) (blocked bool, err error) {
	resp, err := c.Get("http://" + domain + "/")
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if strings.Contains(string(body), blockPageMarker) {
		return true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET %s: %s", domain, resp.Status)
	}
	return false, nil
}
