package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism forbids wall-clock and unseeded-randomness sources inside the
// packages that define the simulated timeline. Golden-trace stability,
// checkpoint difftests, and the KickStarter-style streaming-correctness
// argument all assume that re-running a phase replays the identical event
// sequence; one time.Now or global rand draw in an engine path silently
// breaks that without failing any functional test.
//
// Banned in the deterministic packages (non-test files):
//
//   - time.Now, time.Since, time.Until, time.Sleep, time.After, time.Tick,
//     time.NewTimer, time.NewTicker, time.AfterFunc
//   - package-level math/rand and math/rand/v2 functions (the unseeded
//     global generator); rand.New/rand.NewSource with an explicit seed are
//     allowed, as is every method on an injected *rand.Rand
//   - select cases that receive from a timer channel (<-chan time.Time)
//
// A justified escape hatch suppresses one diagnostic:
//
//	//jetlint:allow determinism -- reason
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time and unseeded randomness in the simulated-timeline packages",
	Run:  runDeterminism,
}

// DeterministicPackages lists the module-relative packages whose behavior
// must be a pure function of configuration and input.
var DeterministicPackages = []string{
	"internal/engine",
	"internal/mem",
	"internal/noc",
	"internal/queue",
	"internal/event",
	// The graph substrate feeds the simulated timeline directly: the delta
	// mutation layer decides rebuild-vs-in-place per batch and EdgeAt drives
	// the deterministic stream generator, so any wall-clock or global-rand
	// dependence here would desynchronize golden traces just like an engine
	// path would. Generators must use explicitly seeded *rand.Rand.
	"internal/graph",
}

var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs are the package-level math/rand functions that construct
// explicitly seeded generators rather than drawing from the global one.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	restricted := make(map[string]bool, len(DeterministicPackages))
	for _, p := range DeterministicPackages {
		restricted[pass.Mod.Path+"/"+p] = true
	}
	for _, pkg := range pass.Mod.Pkgs {
		if !restricted[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue // tests may use timeouts and ad-hoc randomness
			}
			checkDeterminismFile(pass, pkg, f)
		}
	}
}

func checkDeterminismFile(pass *Pass, pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn, ok := pkg.Info.Uses[n].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Float64) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(n.Pos(), "time.%s is wall-clock-dependent; deterministic packages must derive time from the simulated cycle count", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(n.Pos(), "%s.%s draws from the unseeded global generator; use an injected, explicitly seeded *rand.Rand", pathBase(fn.Pkg().Path()), fn.Name())
				}
			}
		case *ast.CommClause:
			if recv := commReceiveChan(n); recv != nil {
				if tv, ok := pkg.Info.Types[recv]; ok && isTimeChan(tv.Type) {
					pass.Reportf(n.Pos(), "select on a timer channel makes the winning case schedule-dependent; deterministic packages must not race the wall clock")
				}
			}
		}
		return true
	})
}

// commReceiveChan extracts the channel expression of a select case that
// receives (case <-ch:, case v := <-ch:), or nil.
func commReceiveChan(c *ast.CommClause) ast.Expr {
	var e ast.Expr
	switch s := c.Comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if un, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && un.Op == token.ARROW {
		return un.X
	}
	return nil
}

// isTimeChan reports whether t is a channel of time.Time.
func isTimeChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	named, ok := ch.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Time"
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
