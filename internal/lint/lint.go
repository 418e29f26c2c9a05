// Package lint implements jetlint, a static-analysis suite enforcing the
// repo-specific invariants that go vet and staticcheck cannot see:
//
//   - determinism: the simulated-timeline packages (engine, mem, noc, queue,
//     event, graph) must not consult wall-clock time or unseeded global
//     randomness; golden-trace replay and checkpoint difftests depend on
//     bit-identical re-execution.
//   - panicfree: exported functions of the public boundary (the root
//     package) must not call panic, log.Fatal*, or os.Exit directly;
//     caller-supplied input is rejected with errors.
//   - errwrap: fmt.Errorf with an error argument must use %w, and exported
//     root-package functions must not return bare errors minted by other
//     packages, so callers can errors.Is/As across the public boundary.
//   - syncerr: the durability-bearing packages must not silently discard the
//     error of Close or Sync; a dropped fsync error is a dropped durability
//     guarantee.
//   - lockdiscipline: in the root package and internal/service every
//     Lock/RLock (and the System acquire guard) is followed immediately by its
//     deferred release, and nothing else locks or unlocks.
//
// Every analyzer is syntactic over the type-checked AST. What a test already
// measures stays with the test: allocation budgets are AllocsPerRun
// assertions, copies of typed atomics are go vet's copylocks, and the
// journal-before-apply order is held by the crashpoint sweeps.
//
// A diagnostic can be suppressed with a justified escape hatch on the same
// line or the line above, naming one or more analyzers:
//
//	//jetlint:allow determinism -- wall clock feeds the operator log only
//	//jetlint:allow determinism,syncerr -- reason
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
// pass.Mod.Pkgs themselves and filter to their scope.
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
		Determinism, Panicfree, Errwrap, Syncerr, Lockdiscipline,
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

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
