package lint

import (
	"go/ast"
	"go/types"
)

// Lockdiscipline holds the lock-then-defer idiom in the packages whose locks
// outlive a request: the module root (the acquire/release guard behind
// ErrConcurrentApply) and internal/service (the registry and tenant mutexes).
// A leaked lock wedges a tenant for good, and a leak on a branch no test takes
// (an early error return) fails nothing until production takes it. The rule is
// lexical, so a reader can check it by eye:
//
//   - a Lock or RLock statement is followed immediately by its defer Unlock or
//     defer RUnlock on the same receiver;
//   - `if err := X.acquire(…); err != nil {…}` is followed immediately by
//     `defer X.release()`;
//   - any other Unlock, RUnlock, TryLock, TryRLock, acquire or release call is
//     a finding: a section that must end before the function does moves into
//     a helper of its own;
//   - a function acquires one receiver at most once.
//
// Function literals are functions of their own. A deliberate exception is
// suppressed the usual way:
//
//	//jetlint:allow lockdiscipline -- reason
var Lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "every Lock/RLock/acquire is followed immediately by its deferred release; nothing else locks or unlocks",
	Run:  runLockdiscipline,
}

// releaseOf maps each acquisition to the release its defer must call.
var releaseOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock", "acquire": "release"}

func runLockdiscipline(pass *Pass) {
	scoped := map[string]bool{pass.Mod.Path: true, pass.Mod.Path + "/internal/service": true}
	for _, pkg := range pass.Mod.Pkgs {
		if !scoped[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkLockBody(pass, pkg.Info, fd.Body)
				}
			}
		}
	}
}

// lockMethod classifies call as a lock operation: a sync Mutex/RWMutex/Locker
// method, or a method named acquire or release (the System's CAS guard). It
// returns the receiver as written ("s.mu") and the method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", false
	}
	name = fn.Name()
	switch {
	case fn.Pkg() != nil && fn.Pkg().Path() == "sync":
		switch name {
		case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		default:
			return "", "", false
		}
	case name == "acquire" || name == "release":
		if fn.Type().(*types.Signature).Recv() == nil {
			return "", "", false
		}
	default:
		return "", "", false
	}
	return types.ExprString(sel.X), name, true
}

// checkLockBody applies the rule to one function body. Statement lists are
// visited before the calls inside them, so every call the idiom sanctions is
// marked paired by the time the call itself is reached.
func checkLockBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	paired := make(map[*ast.CallExpr]bool)
	held := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLockBody(pass, info, n.Body)
			return false
		case *ast.BlockStmt:
			pairLocks(pass, info, n.List, paired, held)
		case *ast.CaseClause:
			pairLocks(pass, info, n.Body, paired, held)
		case *ast.CommClause:
			pairLocks(pass, info, n.Body, paired, held)
		case *ast.CallExpr:
			if recv, name, ok := lockMethod(info, n); ok && !paired[n] {
				pass.Reportf(n.Pos(), "%s.%s() outside the lock-then-defer idiom; move the locked section into a helper that defers its release", recv, name)
			}
		}
		return true
	})
}

// pairLocks finds the acquisitions in one statement list and checks that the
// next statement defers the matching release.
func pairLocks(pass *Pass, info *types.Info, list []ast.Stmt, paired map[*ast.CallExpr]bool, held map[string]bool) {
	for i, st := range list {
		call, recv, name := acquisition(info, st)
		if call == nil {
			continue
		}
		paired[call] = true
		key := recv
		if name == "acquire" {
			key += ".acquire"
		}
		if held[key] {
			pass.Reportf(call.Pos(), "%s acquired a second time in this function", key)
		}
		held[key] = true
		want := releaseOf[name]
		if i+1 < len(list) {
			if d, ok := list[i+1].(*ast.DeferStmt); ok {
				if r, n, ok := lockMethod(info, d.Call); ok && r == recv && n == want {
					paired[d.Call] = true
					continue
				}
			}
		}
		pass.Reportf(call.Pos(), "%s.%s() is not followed immediately by defer %s.%s()", recv, name, recv, want)
	}
}

// acquisition recognizes the two statement forms that acquire: a Lock or
// RLock call statement, and an if statement whose init assigns the result of
// an acquire call.
func acquisition(info *types.Info, st ast.Stmt) (call *ast.CallExpr, recv, name string) {
	var e ast.Expr
	switch st := st.(type) {
	case *ast.ExprStmt:
		e = st.X
	case *ast.IfStmt:
		if as, ok := st.Init.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			e = as.Rhs[0]
		}
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	recv, name, ok = lockMethod(info, call)
	if _, acquires := releaseOf[name]; !ok || !acquires {
		return nil, "", ""
	}
	if _, isIf := st.(*ast.IfStmt); isIf != (name == "acquire") {
		return nil, "", ""
	}
	return call, recv, name
}
