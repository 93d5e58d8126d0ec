// Package sinkcontract enforces the Drain-serializes contract on
// censor.Sink implementations: Stream.Drain hands each task's results to
// WriteBatch from a single goroutine, one batch at a time, which is the
// only reason JSONLSink and CSVSink need no locks. A WriteBatch that
// spawns goroutines re-introduces the concurrency Drain exists to remove
// (and races the Flush that follows the last batch); a WriteBatch that
// mutates package-level state shares it with every other sink instance
// and campaign in the process.
package sinkcontract

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the sinkcontract pass.
var Analyzer = &analysis.Analyzer{
	Name: "sinkcontract",
	Key:  "sink",
	Doc: "forbid goroutine spawns and package-level mutation inside " +
		"censor.Sink WriteBatch implementations (Stream.Drain serializes them)",
	Run: run,
}

const censorPkgPath = "repro/censor"

func run(pass *analysis.Pass) error {
	sink := sinkInterface(pass.Pkg)
	if sink == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "WriteBatch" {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := obj.Type().(*types.Signature).Recv()
			if recv == nil || !implementsSink(recv.Type(), sink) {
				continue
			}
			checkWriteBatch(pass, fd)
		}
	}
	return nil
}

// sinkInterface resolves censor.Sink from the package under analysis or
// its direct imports; nil when the package cannot implement it.
func sinkInterface(pkg *types.Package) *types.Interface {
	src := pkg
	if pkg.Path() != censorPkgPath {
		src = nil
		for _, imp := range pkg.Imports() {
			if imp.Path() == censorPkgPath {
				src = imp
				break
			}
		}
	}
	if src == nil {
		return nil
	}
	tn, ok := src.Scope().Lookup("Sink").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// implementsSink reports whether the receiver's type (or its pointer)
// satisfies censor.Sink.
func implementsSink(recv types.Type, sink *types.Interface) bool {
	if types.Implements(recv, sink) {
		return true
	}
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), sink)
	}
	return false
}

// checkWriteBatch walks one WriteBatch implementation, including nested
// func literals, for contract violations.
func checkWriteBatch(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "Sink.WriteBatch spawns a goroutine; Drain serializes writes and Flush follows the last batch — finish the work inline")
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AfterFunc" {
				if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
					if p := obj.Pkg().Path(); p == "time" || p == "context" {
						pass.Reportf(n.Pos(), "%s.AfterFunc inside Sink.WriteBatch runs its callback on a new goroutine after Drain has moved on", obj.Pkg().Name())
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := packageLevelTarget(pass, lhs); v != nil {
					pass.Reportf(lhs.Pos(), "Sink.WriteBatch mutates package-level %s; sink state must live on the sink instance", v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(pass, n.X); v != nil {
				pass.Reportf(n.X.Pos(), "Sink.WriteBatch mutates package-level %s; sink state must live on the sink instance", v.Name())
			}
		}
		return true
	})
}

// packageLevelTarget resolves the base identifier of an assignment target
// and returns the variable when it is package-level (directly, or the
// base of a field/index/pointer expression).
func packageLevelTarget(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}
