// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus the repolint directive
// vocabulary the analyzers share.
//
// The repo cannot vendor x/tools, so the framework is built directly on
// go/ast, go/types and go/importer: packages are parsed and type-checked
// from source inside the module (see Loader), analyzers walk typed ASTs
// and report Diagnostics, and the runner applies //repolint:allow
// suppression so every waiver in the tree is explicit and auditable.
//
// The analyzers in the subpackages encode the reproduction's contracts —
// the invariants that previously lived only in comments and hand-rolled
// tests:
//
//   - simdeterminism: deterministic packages must not read wall clocks,
//     use the global math/rand source, or let map iteration order feed
//     scheduling or output.
//   - hotpathalloc: functions marked //repolint:hotpath must not build
//     per-call closures for Schedule, format with fmt, concatenate
//     strings, or make non-pooled []byte buffers.
//   - timerbyvalue: sim.Timer is a generation-counted value handle and
//     must never be used through a pointer.
//   - sinkcontract: censor.Sink.WriteBatch implementations must not spawn
//     goroutines or mutate package-level state — Stream.Drain serializes
//     writes.
//   - apisurface: the public censor, monitor, and netbridge packages must
//     not expose repro/internal types in their exported signatures.
//   - bridgeboundary: in bridge packages (netbridge), only functions
//     marked //repolint:pump may call into the simulation packages — all
//     other goroutines must reach the sim through the pump.
//
// cmd/repolint is the multichecker driver; analysistest runs analyzers
// over fixture packages with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check, mirroring the x/tools analysis.Analyzer
// shape: a documented Run function over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output, e.g. "simdeterminism".
	Name string
	// Key is the short contract name //repolint:allow directives use to
	// waive this analyzer's findings, e.g. "determinism".
	Key string
	// Doc is the one-paragraph description shown by repolint -list.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs is the package's parsed repolint directive set; analyzers use
	// it for opt-in markers (hotpath, deterministic, public). Suppression
	// of reported diagnostics is applied by the runner, not by analyzers.
	Dirs *Directives

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Key:      p.Analyzer.Key,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	// Key is the directive key a //repolint:allow must name to waive this
	// diagnostic; empty for framework diagnostics, which cannot be waived.
	Key     string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}
