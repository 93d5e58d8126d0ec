package monitor

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/censor"
	"repro/obs"
)

// TestMetricsEndpoint wires one registry through the store and the
// handler and checks the /metrics, /debug/vars and extended /healthz
// faces over a pushed run.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewStore(WithTelemetry(reg))
	srv := httptest.NewServer(NewHandler(store, nil, WithMetrics(reg)))
	defer srv.Close()

	sink := store.Begin("small", "test")
	for i := 0; i < 3; i++ {
		if err := sink.WriteBatch([]censor.Result{{Vantage: "Airtel", Measurement: "dns", Domain: "x.example", Blocked: true}}); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	body := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, metrics := body("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE monitor_results_ingested_total counter",
		"monitor_results_ingested_total 3",
		"monitor_runs_total 1",
		"monitor_results_evicted_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	code, vars := body("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	if !strings.Contains(vars, `"censord"`) || !strings.Contains(vars, "monitor_results_ingested_total") {
		t.Errorf("/debug/vars missing registry snapshot:\n%s", vars)
	}

	code, health := body("/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	for _, want := range []string{`"status": "ok"`, `"go": "go`, `"uptime"`, `"uptime_ns"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %q:\n%s", want, health)
		}
	}

	// Without WithMetrics the endpoints are absent, not empty.
	bare := httptest.NewServer(NewHandler(NewStore(), nil))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET bare /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bare /metrics = %d, want 404", resp.StatusCode)
	}
}
