// ISP survey: the condensed nine-ISP study — OONI accuracy (Table 1), HTTP
// filtering coverage and middlebox types (Table 2), DNS censorship
// (Figure 2), collateral damage (Table 3), and the evasion matrix (§5) —
// on the reduced world so it completes in seconds. The suite runs on a
// censor session; run cmd/censorscan without -scenario small for the
// paper-scale numbers, or with -campaign for the raw JSONL records.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/censor"
	"repro/internal/experiments"
)

func main() {
	sess, err := censor.NewSession(context.Background(), censor.WithScenario(censor.MustLookupScenario("small")))
	if err != nil {
		fmt.Fprintf(os.Stderr, "isp_survey: %v\n", err)
		os.Exit(1)
	}
	s := experiments.NewSuiteWith(sess, experiments.QuickOptions())

	fmt.Print(experiments.RenderTable1(s.Table1(experiments.OONITargets)))
	fmt.Println()
	fmt.Print(experiments.RenderTable2(s.Table2()))
	fmt.Println()
	fmt.Print(experiments.RenderFigure5(s.Figure5()))
	fmt.Println()
	fmt.Print(experiments.RenderFigure2(s.Figure2()))
	fmt.Println()
	fmt.Print(experiments.RenderTable3(s.Table3()))
	fmt.Println()
	fmt.Print(experiments.RenderSection5(s.Section5()))
}
