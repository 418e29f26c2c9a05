// Package lint implements jetlint, a static-analysis suite enforcing the
// repo-specific invariants that go vet and staticcheck cannot see:
//
//   - atomicmix: a field or package-level variable accessed through
//     sync/atomic anywhere in the module must never be read or written with
//     a plain load/store — -race only catches the mix when the schedule
//     cooperates, the analyzer catches it always.
//   - determinism: the simulated-timeline packages (engine, sim, mem, noc,
//     queue, event) must not consult wall-clock time or unseeded global
//     randomness; golden-trace replay and checkpoint difftests depend on
//     bit-identical re-execution.
//   - panicfree: exported functions of the public boundary (the root
//     package) must not call panic, log.Fatal*, or os.Exit directly;
//     caller-supplied input is rejected with errors.
//   - errwrap: fmt.Errorf with an error argument must use %w, and exported
//     root-package functions must not return bare errors minted by other
//     packages, so callers can errors.Is/As across the public boundary.
//   - syncerr: the durability-bearing packages (root, internal/wal,
//     cmd/jetstream) must not silently discard the error of Close or Sync; a
//     dropped fsync error is a dropped durability guarantee.
//
// Three analyzers are flow-sensitive, built on the intra-procedural CFG and
// worklist dataflow solver in cfg.go/dataflow.go:
//
//   - lockdiscipline: every Lock/RLock (and the System acquire/release CAS
//     guard) is released on all paths out of the function, never acquired
//     twice on one path, and never held across a return.
//   - hotpathalloc: functions annotated //jetlint:hotpath must not contain
//     allocation-inducing constructs on paths that reach a successful exit.
//   - journalorder: on commit paths, the WAL append precedes every state
//     mutation, nothing mutates after a failed append, and journaled batches
//     are applied before a successful return.
//
// A diagnostic can be suppressed with a justified escape hatch on the same
// line or the line above, naming one or more analyzers:
//
//	//jetlint:allow determinism -- wall clock feeds the operator log only
//	//jetlint:allow lockdiscipline,hotpathalloc -- reason
//
// The justification after "--" is mandatory; a directive without one is
// itself reported, as is a stale directive — one naming an analyzer that ran
// but reported nothing on that line, which would otherwise rot into a blanket
// waiver. Everything here is standard library only (go/parser, go/ast,
// go/types); see load.go for how the module is type-checked offline.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over the whole module. Analyzers iterate
// pass.Mod.Pkgs themselves: module-scope properties (atomicmix) need every
// package at once, and package-scope ones just filter.
type Pass struct {
	Mod    *Module
	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Mod.Fset.Position(pos).Filename, "_test.go")
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicmix, Determinism, Panicfree, Errwrap, Syncerr,
		Lockdiscipline, Hotpathalloc, Journalorder,
	}
}

// Run executes the analyzers over m, applies //jetlint:allow suppressions,
// and returns the surviving diagnostics sorted by position. Malformed
// directives (no "-- justification") are reported under the pseudo-analyzer
// "jetlint" and suppress nothing.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		name := a.Name
		ran[name] = true
		pass := &Pass{Mod: m, report: func(pos token.Pos, msg string) {
			p := m.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Analyzer: name, Pos: p, File: p.Filename, Line: p.Line, Column: p.Column, Message: msg,
			})
		}}
		a.Run(pass)
	}

	allows, malformed := collectDirectives(m)
	kept := diags[:0]
	for _, d := range diags {
		if suppressed(allows, d) {
			continue
		}
		kept = append(kept, d)
	}
	diags = append(kept, malformed...)
	diags = append(diags, staleDirectives(allows, ran)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directive is one parsed //jetlint:allow comment. used records, per named
// analyzer, whether the directive actually suppressed a diagnostic — the
// input to stale-directive detection.
type directive struct {
	analyzers map[string]bool
	pos       Diagnostic // position fields only, for stale reporting
	used      map[string]bool
}

const allowPrefix = "//jetlint:allow"

// collectDirectives parses every //jetlint:allow comment in the module into
// a file -> line -> directives index, and returns diagnostics for malformed
// ones (missing the mandatory "-- justification").
func collectDirectives(m *Module) (map[string]map[int][]*directive, []Diagnostic) {
	allows := make(map[string]map[int][]*directive)
	var malformed []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, allowPrefix)
					if !ok {
						continue
					}
					p := m.Fset.Position(c.Pos())
					// Tolerate a trailing line comment (used by fixtures).
					if i := strings.Index(text, " // "); i >= 0 {
						text = text[:i]
					}
					names, reason, found := strings.Cut(text, "--")
					names = strings.TrimSpace(names)
					if !found || strings.TrimSpace(reason) == "" || names == "" {
						malformed = append(malformed, Diagnostic{
							Analyzer: "jetlint", Pos: p, File: p.Filename, Line: p.Line, Column: p.Column,
							Message: `jetlint:allow directive missing justification: want "//jetlint:allow <analyzer> -- reason"`,
						})
						continue
					}
					d := &directive{
						analyzers: make(map[string]bool),
						used:      make(map[string]bool),
						pos: Diagnostic{
							Pos: p, File: p.Filename, Line: p.Line, Column: p.Column,
						},
					}
					for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' }) {
						d.analyzers[n] = true
					}
					byLine := allows[p.Filename]
					if byLine == nil {
						byLine = make(map[int][]*directive)
						allows[p.Filename] = byLine
					}
					byLine[p.Line] = append(byLine[p.Line], d)
				}
			}
		}
	}
	return allows, malformed
}

// suppressed reports whether a directive on d's line or the line above names
// d's analyzer, and marks every such directive as used for that analyzer.
func suppressed(allows map[string]map[int][]*directive, d Diagnostic) bool {
	byLine := allows[d.File]
	if byLine == nil {
		return false
	}
	hit := false
	for _, line := range []int{d.Line, d.Line - 1} {
		for _, dir := range byLine[line] {
			if dir.analyzers[d.Analyzer] {
				if dir.used == nil {
					dir.used = make(map[string]bool)
				}
				dir.used[d.Analyzer] = true
				hit = true
			}
		}
	}
	return hit
}

// staleDirectives reports every well-formed allow directive naming an
// analyzer that ran in this invocation but had nothing to suppress on the
// directive's line — dead waivers that would silently cover future code.
// Analyzers outside the run set are left alone: a partial run (driver
// flags) cannot tell whether the directive still earns its keep.
func staleDirectives(allows map[string]map[int][]*directive, ran map[string]bool) []Diagnostic {
	var stale []Diagnostic
	for _, byLine := range allows {
		for _, dirs := range byLine {
			for _, dir := range dirs {
				names := make([]string, 0, len(dir.analyzers))
				for name := range dir.analyzers {
					if ran[name] && !dir.used[name] {
						names = append(names, name)
					}
				}
				sort.Strings(names)
				for _, name := range names {
					d := dir.pos
					d.Analyzer = "jetlint"
					d.Message = fmt.Sprintf("stale jetlint:allow: %s reports nothing on this line; delete the directive or the name", name)
					stale = append(stale, d)
				}
			}
		}
	}
	return stale
}

// ---- shared AST/type helpers ----

// walkStack traverses root, calling fn for every node with its ancestor
// stack (outermost first, not including n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// callee resolves the object a call invokes: a *types.Func for functions and
// methods, a *types.Builtin for builtins, nil for indirect calls and
// conversions.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeFromPkg reports whether call invokes the named package-level
// function of the given import path.
func calleeFromPkg(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// refObject resolves the variable or field an expression denotes: x, x.f,
// pkg.V. Returns nil for anything else (index expressions, calls, ...).
func refObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
