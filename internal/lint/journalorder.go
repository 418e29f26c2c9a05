package lint

import (
	"go/ast"
	"go/types"
)

// Journalorder machine-checks the PR 6 durability invariant on the commit
// paths: the write-ahead append must come first, and what was journaled must
// actually be applied. Concretely, in any function of the root package or
// internal/service that both appends to a WAL and mutates durable state
// (System.applyBatch and friends):
//
//  1. no state mutation may precede a WAL append on any path — replay after
//     a crash between the two would double-apply the batch;
//  2. after a WAL append fails (its error is non-nil on the taken edge),
//     no state mutation may run — the log no longer describes the state;
//  3. a success return must not leave a batch journaled but unapplied: the
//     apply/commit has to post-dominate the append on success paths.
//
// Recognized WAL appends: a method named Append called through a field or
// variable named "wal" (s.wal.Append(seq, b)), and the root System's
// journal() helper. Recognized mutators, by method name rooted anywhere but
// the wal chain: ApplyBatch, RunInitial, Record, Expire, expireInto.
// Functions without an append (the recovery replay paths, which mutate with
// journaling intentionally off) are out of scope — the invariant constrains
// journaled commits, not replays.
var Journalorder = &Analyzer{
	Name: "journalorder",
	Doc:  "WAL append must precede state mutation, and journaled batches must be applied on success paths",
	Run:  runJournalorder,
}

var journalMutators = map[string]bool{
	"ApplyBatch": true, "RunInitial": true,
	"Record": true, "Expire": true, "expireInto": true,
}

// classifyJournalCall sorts a call into append / mutator / neither.
func classifyJournalCall(call *ast.CallExpr) (isAppend, isMutator bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false, false
	}
	chain := renderRef(sel.X)
	onWal := chain == "wal" || lastSegment(chain) == "wal"
	name := sel.Sel.Name
	if name == "journal" || (name == "Append" && onWal) {
		return true, false
	}
	return false, journalMutators[name] && !onWal
}

func lastSegment(chain string) string {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i] == '.' {
			return chain[i+1:]
		}
	}
	return chain
}

// journalStat is the three-point lattice for "has X happened on this path".
type journalStat int8

const (
	jsNo journalStat = iota
	jsMaybe
	jsYes
)

func mergeJournalStat(a, b journalStat) journalStat {
	if a == b {
		return a
	}
	return jsMaybe
}

// journalState is the dataflow value. errObj carries the variable holding
// the most recent append's error so the edge refinement can mark the
// failed-append path.
type journalState struct {
	journaled journalStat
	mutated   journalStat
	failed    bool         // an append failed on this path
	errObj    types.Object // pending: last append's unexamined error
}

func runJournalorder(pass *Pass) {
	scoped := lockScopedPkgs(pass.Mod) // same packages own the commit paths
	for _, pkg := range pass.Mod.Pkgs {
		if !scoped[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			funcsOfFile(f, func(fd *ast.FuncDecl) {
				if journalInScope(fd.Body) {
					checkJournalFunc(pass, pkg, fd)
				}
			})
		}
	}
}

// journalInScope reports whether the function body contains both an append
// and a mutator outside nested func literals — the shape of a commit path.
func journalInScope(body *ast.BlockStmt) bool {
	hasAppend, hasMut := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			a, m := classifyJournalCall(call)
			hasAppend = hasAppend || a
			hasMut = hasMut || m
		}
		return true
	})
	return hasAppend && hasMut
}

func checkJournalFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	g := BuildCFG(fd.Body)
	hasErr, nresults := returnsError(pkg.Info, fd)
	flow := Flow[journalState]{
		Entry: journalState{},
		Transfer: func(b *Block, in journalState) journalState {
			return journalTransfer(pkg, b, in, nil, false, 0)
		},
		// Refine marks the failed-append path: along the edge where the
		// append's error variable is non-nil, any mutation is corruption.
		Refine: func(e *Edge, out journalState) journalState {
			if out.errObj == nil {
				return out
			}
			fact, ok := refineCond(pkg.Info, e)
			if !ok || fact.obj != out.errObj || !fact.isNilCmp {
				return out
			}
			out.errObj = nil
			if !fact.value { // the error is non-nil on this edge
				out.failed = true
			}
			return out
		},
		Merge: func(a, b journalState) journalState {
			s := journalState{
				journaled: mergeJournalStat(a.journaled, b.journaled),
				mutated:   mergeJournalStat(a.mutated, b.mutated),
				failed:    a.failed || b.failed,
			}
			if a.errObj == b.errObj {
				s.errObj = a.errObj
			}
			return s
		},
		Equal: func(a, b journalState) bool { return a == b },
	}
	in := Solve(g, flow)
	for _, b := range g.Blocks {
		state, ok := in[b]
		if !ok {
			continue
		}
		journalTransfer(pkg, b, state, pass, hasErr, nresults)
	}
}

// journalTransfer interprets one block; with pass set it replays once with
// reporting. Nested func literals are opaque (they do not run here).
func journalTransfer(pkg *Package, b *Block, in journalState, pass *Pass, hasErr bool, nresults int) journalState {
	state := in
	for _, node := range b.Nodes {
		switch n := node.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				state = applyJournalCall(state, call, nil, pass)
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
					state = applyJournalCall(state, call, bind, pass)
				}
			}
		case *ast.ReturnStmt:
			if pass != nil {
				success := !hasErr || !isErrorReturn(n, nresults)
				if success && state.journaled == jsYes && state.mutated == jsNo {
					pass.Reportf(n.Pos(), "success return leaves the batch journaled but not applied; the commit must post-dominate the WAL append")
				}
			}
		}
	}
	return state
}

func applyJournalCall(state journalState, call *ast.CallExpr, bind types.Object, pass *Pass) journalState {
	isAppend, isMutator := classifyJournalCall(call)
	switch {
	case isAppend:
		if pass != nil && state.mutated != jsNo {
			pass.Reportf(call.Pos(), "WAL append after state mutation; a crash between them replays a half-applied batch — append before every mutator")
		}
		state.journaled = jsYes
		state.errObj = bind // nil when the error is dropped/inspected inline
		state.failed = false
	case isMutator:
		if pass != nil && state.failed {
			pass.Reportf(call.Pos(), "state mutation after a failed WAL append; the log no longer describes this state — return the append error first")
		}
		state.mutated = jsYes
	}
	return state
}
