package experiments

import (
	"strings"
	"testing"
)

var sharedSuite *Suite

func suite(t testing.TB) *Suite {
	t.Helper()
	if sharedSuite == nil {
		sharedSuite = NewSuite(QuickOptions())
	}
	return sharedSuite
}

func TestTable1Quick(t *testing.T) {
	s := suite(t)
	rows := s.Table1([]string{"MTNL", "Airtel", "Vodafone"})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// TCP column must be exactly zero everywhere, as in the paper.
		if r.TCP.Flagged != 0 {
			t.Errorf("%s: OONI flagged %d TCP blockings, want 0", r.ISP, r.TCP.Flagged)
		}
		// Precision must be below 1: OONI false positives must exist.
		if r.Total.Flagged > 0 && r.Total.Precision >= 0.999 {
			t.Errorf("%s: OONI total precision %.2f — no false positives simulated?", r.ISP, r.Total.Precision)
		}
	}
	// MTNL must show DNS flags; Airtel must not.
	if rows[0].DNS.Flagged == 0 {
		t.Error("MTNL: no DNS flags")
	}
	// Vodafone's covert resets give it higher HTTP recall than Airtel's
	// mimicking wiretap notifications (the paper's Table 1 contrast).
	if rows[2].HTTP.Truth > 2 && rows[1].HTTP.Truth > 2 && rows[2].HTTP.Recall <= rows[1].HTTP.Recall {
		t.Errorf("recall contrast: Vodafone %.2f <= Airtel %.2f", rows[2].HTTP.Recall, rows[1].HTTP.Recall)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "MTNL") || !strings.Contains(out, "Table 1") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable2AndFigure5Quick(t *testing.T) {
	s := suite(t)
	rows := s.Table2()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byISP := map[string]Table2Row{}
	for _, r := range rows {
		byISP[r.ISP] = r
	}
	// Quick-scale tolerances are wide (36 paths); the full-scale run in
	// bench_test.go checks the calibrated values.
	if byISP["Jio"].OutsideCoverage != 0 {
		t.Errorf("Jio outside coverage = %.1f, want 0", byISP["Jio"].OutsideCoverage)
	}
	if byISP["Idea"].WithinCoverage < 70 {
		t.Errorf("Idea within = %.1f, want ~92", byISP["Idea"].WithinCoverage)
	}
	if byISP["Airtel"].WithinCoverage < 50 || byISP["Airtel"].WithinCoverage > 95 {
		t.Errorf("Airtel within = %.1f, want ~75", byISP["Airtel"].WithinCoverage)
	}
	if byISP["Vodafone"].WithinCoverage > 35 {
		t.Errorf("Vodafone within = %.1f, want ~11", byISP["Vodafone"].WithinCoverage)
	}
	// Ordering must match the paper even when absolute values are noisy.
	if !(byISP["Idea"].WithinCoverage > byISP["Airtel"].WithinCoverage &&
		byISP["Airtel"].WithinCoverage > byISP["Vodafone"].WithinCoverage &&
		byISP["Vodafone"].WithinCoverage >= byISP["Jio"].WithinCoverage) {
		t.Errorf("coverage ordering broken: %+v", rows)
	}
	if byISP["Airtel"].BoxType != "WM" || byISP["Idea"].BoxType != "IM" || byISP["Vodafone"].BoxType != "IM" {
		t.Errorf("box types: %+v", rows)
	}
	// Idea's consistency must dominate the others (Figure 5 ordering).
	f5 := s.Figure5()
	var idea, airtel, vod float64
	for _, r := range f5 {
		switch r.ISP {
		case "Idea":
			idea = r.Consistency
		case "Airtel":
			airtel = r.Consistency
		case "Vodafone":
			vod = r.Consistency
		}
	}
	if !(idea > airtel && idea > vod) {
		t.Errorf("Figure 5 ordering: idea=%.1f airtel=%.1f vodafone=%.1f", idea, airtel, vod)
	}
	out := RenderTable2(rows) + RenderFigure5(f5)
	if !strings.Contains(out, "Figure 5") {
		t.Error("render missing")
	}
}

// table2QuickGolden is RenderTable2+RenderFigure5 of a fresh QuickOptions
// suite. Table 2 runs its ISPs in sequence on one world, so a scan that
// sends, reads or times out in a different order changes these bytes even
// when every row stays inside the ranges TestTable2AndFigure5Quick checks.
const table2QuickGolden = "" +
	"Table 2: HTTP filtering in different ISPs\n" +
	"ISP          Cov(within)%  Cov(outside)%    Box   #Blocked  Consistency%\n" +
	"Airtel               80.6           56.2     WM         46          10.9\n" +
	"Idea                 86.1           93.8     IM         67          75.8\n" +
	"Vodafone             16.7            6.2     IM         45          25.9\n" +
	"Jio                   0.0            0.0      ?          0           0.0\n" +
	"Figure 5: Consistency of middleboxes (% of poisoned paths blocking each site)\n" +
	"Airtel     consistency=10.9% blocked-sites=46\n" +
	"       series: min=3.4% p25=6.9% median=10.3% p75=13.8% max=24.1% (n=46)\n" +
	"Vodafone   consistency=25.9% blocked-sites=45\n" +
	"       series: min=16.7% p25=16.7% median=16.7% p75=33.3% max=66.7% (n=45)\n" +
	"Idea       consistency=75.8% blocked-sites=67\n" +
	"       series: min=64.5% p25=71.0% median=74.2% p75=80.6% max=90.3% (n=67)\n"

func TestTable2AndFigure5QuickGolden(t *testing.T) {
	s := NewSuite(QuickOptions())
	if got := RenderTable2(s.Table2()) + RenderFigure5(s.Figure5()); got != table2QuickGolden {
		t.Errorf("Table 2 + Figure 5 changed:\n%s\nwant:\n%s", got, table2QuickGolden)
	}
}

func TestFigure2Quick(t *testing.T) {
	s := suite(t)
	rows := s.Figure2()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mtnl, bsnl := rows[0], rows[1]
	if mtnl.ISP != "MTNL" || bsnl.ISP != "BSNL" {
		t.Fatalf("order: %s, %s", mtnl.ISP, bsnl.ISP)
	}
	// MTNL: high coverage (~77%), BSNL low (~9%).
	if mtnl.Scan.Coverage < 0.6 || bsnl.Scan.Coverage > 0.2 {
		t.Errorf("coverage: MTNL=%.2f BSNL=%.2f", mtnl.Scan.Coverage, bsnl.Scan.Coverage)
	}
	// MTNL consistency well above BSNL's.
	if mtnl.Scan.Consistency <= bsnl.Scan.Consistency {
		t.Errorf("consistency: MTNL=%.3f BSNL=%.3f", mtnl.Scan.Consistency, bsnl.Scan.Consistency)
	}
	_ = RenderFigure2(rows)
}

func TestTable3Quick(t *testing.T) {
	s := suite(t)
	rows := s.Table3()
	byISP := map[string]*Table3Row{}
	for i := range rows {
		byISP[rows[i].ISP] = &rows[i]
	}
	expect := map[string][]string{
		"NKN":  {"Vodafone", "TATA"},
		"Sify": {"TATA", "Airtel"},
		"Siti": {"Airtel"},
		"MTNL": {"TATA", "Airtel"},
		"BSNL": {"TATA", "Airtel"},
	}
	for isp, neighbors := range expect {
		r := byISP[isp]
		if r == nil {
			t.Fatalf("missing row %s", isp)
		}
		for _, n := range neighbors {
			if r.Result.ByNeighbor[n] == 0 {
				t.Errorf("%s: no collateral attributed to %s (got %v)", isp, n, r.Result.ByNeighbor)
			}
		}
		for n := range r.Result.ByNeighbor {
			if n == "unattributed" {
				continue
			}
			found := false
			for _, want := range neighbors {
				if n == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: unexpected neighbour %s", isp, n)
			}
		}
	}
	_ = RenderTable3(rows)
}

func TestFigure1Quick(t *testing.T) {
	s := suite(t)
	r := s.Figure1()
	if r.Trace == nil || r.Trace.CensorHop == 0 {
		t.Fatalf("tracer found nothing: %+v", r)
	}
	out := RenderFigure1(r)
	if !strings.Contains(out, "censorship notification") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigures3And4Quick(t *testing.T) {
	s := suite(t)
	f3 := s.Figure3()
	if f3.Domain == "" || f3.BoxType != "interceptive" {
		t.Errorf("figure 3: %+v", f3)
	}
	f4 := s.Figure4()
	if f4.Domain == "" || f4.BoxType != "wiretap" {
		t.Errorf("figure 4: %+v", f4)
	}
	out := RenderFigureTrace("Figure 3", f3) + RenderFigureTrace("Figure 4", f4)
	if !strings.Contains(out, "client-side capture") {
		t.Error("render missing captures")
	}
}

func TestSection5Quick(t *testing.T) {
	s := suite(t)
	rows := s.Section5()
	for _, r := range rows {
		if r.Matrix.Tried == 0 {
			continue
		}
		if r.Matrix.AnyPerDomain != r.Matrix.Tried {
			t.Errorf("%s: evaded %d/%d", r.ISP, r.Matrix.AnyPerDomain, r.Matrix.Tried)
		}
	}
	_ = RenderSection5(rows)
}

func TestSection31Quick(t *testing.T) {
	s := suite(t)
	rows := s.Section31([]string{"Idea"})
	if len(rows) != 1 {
		t.Fatal("no rows")
	}
	r := rows[0]
	if r.OverThreshold == 0 {
		t.Fatal("nothing over threshold")
	}
	// Paper: 30-40% of over-threshold sites are actually non-censored;
	// the cleared fraction must be substantial but not dominant.
	f := r.ClearedFraction()
	if f <= 0.05 || f >= 0.95 {
		t.Errorf("cleared fraction = %.2f (over=%d cleared=%d)", f, r.OverThreshold, r.Cleared)
	}
	if !strings.Contains(RenderSection31(rows), "threshold-FP-rate") {
		t.Error("render broken")
	}
}
