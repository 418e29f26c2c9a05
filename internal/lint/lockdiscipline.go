package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockdiscipline is the first CFG-based analyzer: every Lock/RLock acquired
// in a function must be released on all paths out of it, either by a defer
// or explicitly before each return; no path may acquire the same lock twice;
// and no function may return while (possibly) holding a lock. The repo's
// concurrency story depends on it twice over: the service layer serializes
// tenants with plain sync.Mutex pairs (PR 8), and the root System guards
// ApplyBatch/Sync/Compact/Close with the acquire/release CAS pair behind
// ErrConcurrentApply — a leaked acquisition wedges the tenant forever, which
// no unit test notices until the second request hangs.
//
// Tracked acquisitions, keyed by the receiver chain as written ("s.mu",
// "t.mu"), intra-procedurally per function (closures are analyzed as their
// own functions; closures deferred at the top level contribute their
// releases to the enclosing function's exit):
//
//   - (*sync.Mutex).Lock / (*sync.RWMutex).Lock / RLock: unconditional
//   - TryLock / TryRLock: held only on the true edge of the result
//   - a method named acquire returning error: held only on the err == nil
//     edge (the System CAS guard); a method named release is its unlock
//
// Intentional locked-handoff returns are suppressed the usual way:
//
//	//jetlint:allow lockdiscipline -- reason
//
// Scope: the packages that own locks with cross-request lifetime — the
// module root and internal/service.
var Lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "every lock acquired must be released on all paths; no double-lock; no return while holding",
	Run:  runLockdiscipline,
}

func lockScopedPkgs(m *Module) map[string]bool {
	return map[string]bool{
		m.Path:                       true,
		m.Path + "/internal/service": true,
	}
}

// lockStat is the per-key lattice value.
type lockStat int8

const (
	lockUnheld lockStat = iota // also encoded by key absence
	lockHeld
	lockMaybe // held on some predecessor paths only
	lockCond  // held iff condVar tests a certain way (TryLock / acquire)
)

// lockVal is one lock's state: its lattice point, the variable that decides
// a conditional acquisition, and whether a deferred release is pending.
type lockVal struct {
	stat     lockStat
	condObj  types.Object // for lockCond: the bool result or error variable
	condErr  bool         // condObj is an error (held iff nil), not a bool
	deferred bool         // a defer releases this key at function exit
}

// lockState maps key → value. Treated as immutable: all transitions copy.
type lockState map[string]lockVal

func (s lockState) with(key string, v lockVal) lockState {
	n := make(lockState, len(s)+1)
	for k, old := range s {
		n[k] = old
	}
	if v.stat == lockUnheld && !v.deferred {
		delete(n, key)
	} else {
		n[key] = v
	}
	return n
}

func lockStateEqual(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av != bv {
			return false
		}
	}
	return true
}

func lockStateMerge(a, b lockState) lockState {
	n := make(lockState, len(a))
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			bv = lockVal{stat: lockUnheld}
		}
		n[k] = mergeLockVal(av, bv)
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			n[k] = mergeLockVal(lockVal{stat: lockUnheld}, bv)
		}
	}
	for k, v := range n {
		if v.stat == lockUnheld && !v.deferred {
			delete(n, k)
		}
	}
	return n
}

func mergeLockVal(a, b lockVal) lockVal {
	v := lockVal{deferred: a.deferred && b.deferred}
	switch {
	case a.stat == b.stat && a.condObj == b.condObj:
		v.stat, v.condObj, v.condErr = a.stat, a.condObj, a.condErr
	case a.stat == lockUnheld && b.stat == lockUnheld:
		v.stat = lockUnheld
	case a.stat == lockHeld && b.stat == lockHeld:
		v.stat = lockHeld
	default:
		// Mixed held/unheld/conditional predecessors: possibly held.
		v.stat = lockMaybe
	}
	return v
}

// lockOp is one recognized lock-related call.
type lockOp struct {
	key     string // receiver chain + mode ("s.mu", "s.mu[R]", "s[cas]")
	chain   string // receiver chain for messages
	kind    int    // opLock..opRelease
	condErr bool   // conditional op reports via error rather than bool
}

const (
	opLock    = iota // unconditional acquisition
	opTryLock        // conditional acquisition (bool / error result)
	opUnlock
)

// classifyLockOp recognizes a call as a lock operation. Mutex methods are
// matched by resolving to package sync; the CAS guard by the local
// acquire/release naming convention with the matching signature.
func classifyLockOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	chain := renderRef(sel.X)
	if chain == "" {
		return lockOp{}, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return lockOp{}, false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		switch name {
		case "Lock":
			return lockOp{key: chain, chain: chain, kind: opLock}, true
		case "RLock":
			return lockOp{key: chain + "[R]", chain: chain + " (read)", kind: opLock}, true
		case "TryLock":
			return lockOp{key: chain, chain: chain, kind: opTryLock}, true
		case "TryRLock":
			return lockOp{key: chain + "[R]", chain: chain + " (read)", kind: opTryLock}, true
		case "Unlock":
			return lockOp{key: chain, chain: chain, kind: opUnlock}, true
		case "RUnlock":
			return lockOp{key: chain + "[R]", chain: chain + " (read)", kind: opUnlock}, true
		}
		return lockOp{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return lockOp{}, false
	}
	switch name {
	case "acquire":
		if sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
			return lockOp{key: chain + "[cas]", chain: chain + ".acquire", kind: opTryLock, condErr: true}, true
		}
	case "release":
		if sig.Results().Len() == 0 {
			return lockOp{key: chain + "[cas]", chain: chain + ".acquire", kind: opUnlock}, true
		}
	}
	return lockOp{}, false
}

func runLockdiscipline(pass *Pass) {
	scoped := lockScopedPkgs(pass.Mod)
	for _, pkg := range pass.Mod.Pkgs {
		if !scoped[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			funcsOfFile(f, func(fd *ast.FuncDecl) {
				checkLockFunc(pass, pkg, fd.Body)
			})
			// Closures are their own lock scopes, except ones deferred at
			// the top of a function, whose unlocks belong to the enclosing
			// exit and are credited by the deferred-release scan.
			ast.Inspect(f, func(n ast.Node) bool {
				if d, ok := n.(*ast.DeferStmt); ok {
					if _, isLit := ast.Unparen(d.Call.Fun).(*ast.FuncLit); isLit {
						return false
					}
				}
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockFunc(pass, pkg, lit.Body)
				}
				return true
			})
		}
	}
}

// checkLockFunc solves the lock lattice over one function body and replays
// the final states to report.
func checkLockFunc(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	g := BuildCFG(body)
	flow := Flow[lockState]{
		Entry:    lockState{},
		Transfer: func(b *Block, in lockState) lockState { return lockTransfer(pkg, b, in, nil) },
		Refine:   func(e *Edge, out lockState) lockState { return lockRefine(pkg, e, out) },
		Merge:    lockStateMerge,
		Equal:    lockStateEqual,
	}
	in := Solve(g, flow)
	for _, b := range g.Blocks {
		state, ok := in[b]
		if !ok {
			continue // unreachable
		}
		lockTransfer(pkg, b, state, pass)
		// Fall-off-the-end exits have no return statement to anchor a
		// report, so a leak there is reported at the closing brace.
		if !b.Panics && b != g.Exit && endsAtExit(b, g) && !endsWithReturn(b) {
			out := lockTransfer(pkg, b, state, nil)
			reportHeld(pass, out, body.Rbrace, "function exit")
		}
	}
}

func endsAtExit(b *Block, g *CFG) bool {
	for _, e := range b.Succs {
		if e.To == g.Exit {
			return true
		}
	}
	return false
}

func endsWithReturn(b *Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	_, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return ok
}

// lockTransfer applies one block's effect. With pass == nil it is the pure
// transfer function for the solver; with pass set it replays the identical
// transitions once, reporting violations.
func lockTransfer(pkg *Package, b *Block, in lockState, pass *Pass) lockState {
	state := in
	for _, node := range b.Nodes {
		switch n := node.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				state = applyLockCall(pkg, state, call, nil, pass)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					var bind types.Object
					if len(n.Lhs) == 1 {
						if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
							if bind = pkg.Info.Defs[id]; bind == nil {
								bind = pkg.Info.Uses[id]
							}
						}
					}
					state = applyLockCall(pkg, state, call, bind, pass)
				}
			}
		case *ast.DeferStmt:
			state = applyLockDefer(pkg, state, n.Call)
		case *ast.ReturnStmt:
			if pass != nil {
				reportHeld(pass, state, n.Pos(), "return")
			}
		}
	}
	return state
}

// applyLockCall interprets one call statement. bind is the variable the
// call's single result is assigned to, for conditional acquisitions.
func applyLockCall(pkg *Package, state lockState, call *ast.CallExpr, bind types.Object, pass *Pass) lockState {
	op, ok := classifyLockOp(pkg.Info, call)
	if !ok {
		return state
	}
	cur := state[op.key]
	switch op.kind {
	case opLock:
		if pass != nil && cur.stat == lockHeld {
			pass.Reportf(call.Pos(), "lock %s acquired again while already held on this path (deadlock)", op.chain)
		}
		return state.with(op.key, lockVal{stat: lockHeld, deferred: cur.deferred})
	case opTryLock:
		if pass != nil && cur.stat == lockHeld {
			pass.Reportf(call.Pos(), "lock %s acquired again while already held on this path (deadlock)", op.chain)
		}
		if bind == nil {
			// Result unused or not a plain variable: no edge will resolve
			// it, so stay conservative — treat as possibly held.
			return state.with(op.key, lockVal{stat: lockMaybe, deferred: cur.deferred})
		}
		return state.with(op.key, lockVal{stat: lockCond, condObj: bind, condErr: op.condErr, deferred: cur.deferred})
	case opUnlock:
		if pass != nil {
			switch {
			case cur.deferred && cur.stat != lockHeld && cur.stat != lockMaybe:
				pass.Reportf(call.Pos(), "%s released twice: explicit unlock with a deferred unlock pending", op.chain)
			case cur.stat == lockUnheld:
				pass.Reportf(call.Pos(), "%s released but not held on this path", op.chain)
			}
		}
		return state.with(op.key, lockVal{stat: lockUnheld, deferred: cur.deferred})
	}
	return state
}

// applyLockDefer records deferred releases: `defer mu.Unlock()`, `defer
// s.release()`, or a deferred closure containing such calls.
func applyLockDefer(pkg *Package, state lockState, call *ast.CallExpr) lockState {
	mark := func(s lockState, c *ast.CallExpr) lockState {
		if op, ok := classifyLockOp(pkg.Info, c); ok && op.kind == opUnlock {
			v := s[op.key]
			v.deferred = true
			if v.stat == lockUnheld {
				// defer before (or without) the acquisition: keep the key
				// alive so the flag survives merges.
				return s.with(op.key, v)
			}
			return s.with(op.key, v)
		}
		return s
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				state = mark(state, c)
			}
			return true
		})
		return state
	}
	return mark(state, call)
}

// lockRefine resolves conditional acquisitions along branch edges: the
// TryLock result variable, the acquire error, or the TryLock call appearing
// directly as the branch condition.
func lockRefine(pkg *Package, e *Edge, out lockState) lockState {
	if e.Cond == nil {
		return out
	}
	// `if mu.TryLock() { ... }` — the call is the condition itself.
	if call, ok := ast.Unparen(e.Cond).(*ast.CallExpr); ok {
		if op, ok := classifyLockOp(pkg.Info, call); ok && op.kind == opTryLock && !op.condErr {
			stat := lockUnheld
			if !e.Negate {
				stat = lockHeld
			}
			v := out[op.key]
			return out.with(op.key, lockVal{stat: stat, deferred: v.deferred})
		}
	}
	fact, ok := refineCond(pkg.Info, e)
	if !ok {
		return out
	}
	refined := out
	for key, v := range out {
		if v.stat != lockCond || v.condObj != fact.obj {
			continue
		}
		held := false
		switch {
		case v.condErr && fact.isNilCmp:
			held = fact.value // held iff the error is nil on this edge
		case !v.condErr && !fact.isNilCmp:
			held = fact.value // bool result: held iff true
		default:
			continue
		}
		stat := lockUnheld
		if held {
			stat = lockHeld
		}
		refined = refined.with(key, lockVal{stat: stat, condObj: nil, deferred: v.deferred})
	}
	return refined
}

// reportHeld reports, at an exit point, every lock still (possibly) held
// with no deferred release pending. Keys are visited in sorted order so
// multi-lock reports are deterministic.
func reportHeld(pass *Pass, state lockState, pos token.Pos, where string) {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := state[k]
		if v.deferred {
			if v.stat == lockUnheld {
				pass.Reportf(pos, "deferred unlock of %s runs with the lock already released on this path (released twice)", lockChainOf(k))
			}
			continue // Held/Maybe/Cond are covered by the pending defer
		}
		switch v.stat {
		case lockHeld:
			pass.Reportf(pos, "%s exits while holding %s; unlock on every path, defer the unlock, or annotate a locked handoff with //jetlint:allow lockdiscipline -- reason", where, lockChainOf(k))
		case lockMaybe, lockCond:
			pass.Reportf(pos, "%s may exit while holding %s (held on some paths into this point); unlock before every return", where, lockChainOf(k))
		}
	}
}

// lockChainOf maps a state key back to a human-readable lock name.
func lockChainOf(key string) string {
	if chain, ok := strings.CutSuffix(key, "[R]"); ok {
		return chain + " (read)"
	}
	if chain, ok := strings.CutSuffix(key, "[cas]"); ok {
		return chain + ".acquire"
	}
	return key
}
