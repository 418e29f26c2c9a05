package lint

import (
	"go/ast"
	"go/types"
)

// Panicfree forbids panic, log.Fatal*, and os.Exit in the bodies of exported
// functions and methods of the public boundary, the module root package. The
// public API's contract (established in PR 1) is that caller-supplied input
// is rejected with errors, never a crash; a panic in an exported entry point
// takes the whole embedding process down.
//
// Scope is deliberately non-transitive: only calls appearing directly in the
// exported function's body (including function literals defined there) are
// flagged. Panics in unexported helpers are internal invariant assertions —
// reachable only through validated state, and auditing them is a
// whole-program reachability problem this analyzer does not attempt.
// Methods count as exported only when both the method name and the receiver
// type name are exported.
var Panicfree = &Analyzer{
	Name: "panicfree",
	Doc:  "forbid panic/log.Fatal/os.Exit directly in exported functions of the public boundary",
	Run:  runPanicfree,
}

func runPanicfree(pass *Pass) {
	for _, pkg := range pass.Mod.Pkgs {
		if pkg.Path != pass.Mod.Path {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !exportedBoundary(fd) {
					continue
				}
				checkPanicFreeBody(pass, pkg, fd)
			}
		}
	}
}

// exportedBoundary reports whether fd is part of the exported API surface.
func exportedBoundary(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	// Methods: the receiver's named type must be exported too.
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func checkPanicFreeBody(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch obj := callee(pkg.Info, call).(type) {
		case *types.Builtin:
			if obj.Name() == "panic" {
				pass.Reportf(call.Pos(), "panic in exported %s; the public boundary must reject bad input with an error", fd.Name.Name)
			}
		case *types.Func:
			if obj.Pkg() == nil {
				return true
			}
			switch p, n := obj.Pkg().Path(), obj.Name(); {
			case p == "log" && (n == "Fatal" || n == "Fatalf" || n == "Fatalln"):
				pass.Reportf(call.Pos(), "log.%s in exported %s terminates the embedding process; return an error instead", n, fd.Name.Name)
			case p == "os" && n == "Exit":
				pass.Reportf(call.Pos(), "os.Exit in exported %s terminates the embedding process; return an error instead", fd.Name.Name)
			}
		}
		return true
	})
}
