package scenario

import (
	"go/build"
	"strings"
	"testing"
)

// TestLeafPackage: the schema imports nothing from the rest of the
// module, so both the public censor package and the internal compiler can
// depend on it without a cycle.
func TestLeafPackage(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "repro" || strings.HasPrefix(imp, "repro/") {
			t.Errorf("package scenario imports %s", imp)
		}
	}
}

// TestRunsFlowTables: HTTP censors and transit providers run flow tables,
// DNS censors and clean customers do not, and FlowCapacity is accepted
// exactly where they do.
func TestRunsFlowTables(t *testing.T) {
	sc := Scenario{
		Name: "flow-tables", Seed: 1, PBWSites: 10, AlexaSites: 10, VantagePoints: 1, Pods: 4,
		ISPs: []ISPSpec{
			{Name: "Tap", Mechanism: MechanismWiretap, Edges: 1, Borders: 2, Middleboxes: 1, HTTPBlocklist: 5},
			{Name: "Overt", Mechanism: MechanismInterceptiveOvert, Edges: 1, Borders: 2, Middleboxes: 1, HTTPBlocklist: 5},
			{Name: "Covert", Mechanism: MechanismInterceptiveCovert, Edges: 1, Borders: 2, Middleboxes: 1, HTTPBlocklist: 5},
			{Name: "Poison", Mechanism: MechanismDNSPoisoning, Edges: 1, Borders: 2, Resolvers: 2, PoisonedResolvers: 1, DNSBlocklist: 5},
			{Name: "Provider", Edges: 1, Borders: 2},
			{Name: "Customer", Mechanism: MechanismNone, Edges: 1,
				Transits: []TransitSpec{{Provider: "Provider", Region: "ALL", Collateral: 3}}},
		},
	}
	want := map[string]bool{"Tap": true, "Overt": true, "Covert": true, "Poison": false, "Provider": true, "Customer": false}
	for i := range sc.ISPs {
		isp := &sc.ISPs[i]
		if got := sc.RunsFlowTables(isp); got != want[isp.Name] {
			t.Errorf("RunsFlowTables(%s) = %v, want %v", isp.Name, got, want[isp.Name])
		}
		withCap := sc.Clone()
		withCap.ISPs[i].FlowCapacity = 64
		if err := withCap.Validate(); (err == nil) != want[isp.Name] {
			t.Errorf("%s with flow_capacity: Validate = %v", isp.Name, err)
		}
	}
}
