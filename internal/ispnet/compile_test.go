package ispnet_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/censor"
	"repro/internal/ispnet"
	"repro/scenario"
)

// rejections is the malformed-spec catalogue: each case mutates the small
// preset into a spec Validate must reject with an error naming want.
var rejections = []struct {
	name   string
	mutate func(*scenario.Scenario)
	want   string
}{
	{"no ISPs", func(s *scenario.Scenario) { s.ISPs = nil }, "no ISPs"},
	{"negative edges", func(s *scenario.Scenario) { s.ISPs[0].Edges = -3 }, "negative"},
	{"zero edges", func(s *scenario.Scenario) { s.ISPs[0].Edges = 0 }, "edges"},
	{"consistency above 1", func(s *scenario.Scenario) { s.ISPs[0].Consistency = 1.5 }, "outside [0,1]"},
	{"dns consistency below 0", func(s *scenario.Scenario) { s.ISPs[4].DNSConsistency = -0.1 }, "outside [0,1]"},
	{"unknown mechanism", func(s *scenario.Scenario) { s.ISPs[0].Mechanism = "deep-packet-magic" }, "unknown mechanism"},
	{"unknown transit provider", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Provider = "Hathway" }, "unknown transit provider"},
	{"self transit", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Provider = "MTNL" }, "itself"},
	{"bad transit region", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Region = "APAC" }, "transit region"},
	{"duplicate ISP", func(s *scenario.Scenario) { s.ISPs[1].Name = "Airtel" }, "duplicate"},
	{"boxes without borders", func(s *scenario.Scenario) {
		s.ISPs[0].Borders = 0
		s.ISPs[0].Transits = []scenario.TransitSpec{{Provider: "TATA", Region: "ALL", Collateral: 5}}
	}, "borders"},
	{"inbound exceeds boxes", func(s *scenario.Scenario) { s.ISPs[0].InboundMiddleboxes = 99 }, "exceeds middleboxes"},
	{"poisoned exceeds resolvers", func(s *scenario.Scenario) { s.ISPs[4].PoisonedResolvers = 9999 }, "exceeds resolvers"},
	{"unreachable region", func(s *scenario.Scenario) { s.ISPs[4].Transits = s.ISPs[4].Transits[:1] }, "hosting region"},
	{"http fields on dns censor", func(s *scenario.Scenario) { s.ISPs[4].Middleboxes = 3 }, "mechanism is"},
	{"dns fields on wiretap censor", func(s *scenario.Scenario) { s.ISPs[0].DNSBlocklist = 10 }, "mechanism is"},
	{"loss prob on interceptive", func(s *scenario.Scenario) { s.ISPs[1].WiretapLossProb = 0.3 }, "only wiretap boxes race"},
	{"consistency on dns censor", func(s *scenario.Scenario) { s.ISPs[4].Consistency = 0.4 }, "mechanism is"},
	{"dns consistency on clean ISP", func(s *scenario.Scenario) { s.ISPs[6].DNSConsistency = 0.2 }, "mechanism is"},
	{"too few pods", func(s *scenario.Scenario) { s.Pods = 2 }, "Pods"},
	{"no vantage points", func(s *scenario.Scenario) { s.VantagePoints = 0 }, "VantagePoints"},
}

// TestScenarioValidate rejects the malformed-spec catalogue.
func TestScenarioValidate(t *testing.T) {
	for _, tc := range rejections {
		sc := ispnet.SmallScenario()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := ispnet.Compile(sc); err == nil {
			t.Errorf("%s: Compile accepted the spec", tc.name)
		}
	}
	if err := ispnet.SmallScenario().Validate(); err != nil {
		t.Fatalf("unmutated small scenario rejected: %v", err)
	}
}

// FuzzScenarioJSON drives arbitrary JSON through the spec pipeline a
// caller's world file takes — Unmarshal, Validate, Compile — without
// building a world. Nothing may panic, Validate must accept exactly the
// specs Compile compiles, and an accepted spec must compile to the same
// Config after a Marshal/Unmarshal round trip. Seeds are every registered
// preset plus the rejection catalogue, next to the corpus in
// testdata/fuzz.
func FuzzScenarioJSON(f *testing.F) {
	for _, name := range censor.Scenarios() {
		raw, err := json.Marshal(censor.MustLookupScenario(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, tc := range rejections {
		sc := ispnet.SmallScenario()
		tc.mutate(&sc)
		raw, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sc scenario.Scenario
		if json.Unmarshal(raw, &sc) != nil {
			return
		}
		verr := sc.Validate()
		cfg, cerr := ispnet.Compile(sc)
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("Validate err %v, Compile err %v", verr, cerr)
		}
		if verr != nil {
			return
		}
		again, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("Marshal of an accepted spec: %v", err)
		}
		var back scenario.Scenario
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("Unmarshal of a marshalled spec: %v", err)
		}
		got, err := ispnet.Compile(back)
		if err != nil {
			t.Fatalf("Compile after round trip: %v", err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Fatalf("compiled config changed across JSON round trip:\n got %+v\nwant %+v", got, cfg)
		}
	})
}
