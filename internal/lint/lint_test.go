package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureCases pairs each testdata directory with the analyzer it exercises
// and the import path the fixture is loaded under (analyzer scope depends on
// where the package sits in the module).
var fixtureCases = []struct {
	dir        string
	importPath string
	analyzer   *Analyzer
}{
	{"determinism", "jetstream/internal/engine", Determinism},
	{"determinism_graph", "jetstream/internal/graph", Determinism},
	{"panicfree", "jetstream", Panicfree},
	{"errwrap", "jetstream", Errwrap},
	{"syncerr", "jetstream/internal/wal", Syncerr},
	{"lockdiscipline", "jetstream/internal/service", Lockdiscipline},
}

func TestAnalyzers(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			mod, err := LoadFixture(filepath.Join("testdata", tc.dir), tc.importPath)
			if err != nil {
				t.Fatalf("LoadFixture: %v", err)
			}
			diags := Run(mod, []*Analyzer{tc.analyzer})
			checkWants(t, mod, diags)
		})
	}
}

// want extraction: a comment containing `want "re"` (one or more quoted
// regexps) asserts that each regexp matches a diagnostic message reported on
// that comment's line, and that every diagnostic on the line is matched.
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, mod *Module) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want ")
					if idx < 0 {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					quoted := quotedRe.FindAllString(c.Text[idx+len("want "):], -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
					}
					for _, q := range quoted {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// checkWants compares reported diagnostics against the fixture's want
// comments: every diagnostic needs a matching want on its line and every want
// needs a matching diagnostic.
func checkWants(t *testing.T, mod *Module, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, mod)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// TestSuppressionRequiresMatchingName checks that a directive naming a
// different analyzer does not suppress a diagnostic.
func TestSuppressionRequiresMatchingName(t *testing.T) {
	allows := map[string]map[int][]*directive{
		"f.go": {10: {{analyzers: map[string]bool{"errwrap": true}}}},
	}
	d := Diagnostic{Analyzer: "determinism", File: "f.go", Line: 10}
	if suppressed(allows, d) {
		t.Fatal("directive for errwrap suppressed a determinism diagnostic")
	}
	d.Analyzer = "errwrap"
	if !suppressed(allows, d) {
		t.Fatal("directive on the same line did not suppress")
	}
	d.Line = 11 // directive on the line above the diagnostic
	if !suppressed(allows, d) {
		t.Fatal("directive on the line above did not suppress")
	}
	d.Line = 12
	if suppressed(allows, d) {
		t.Fatal("directive two lines above must not suppress")
	}
}

// TestDiagnosticJSON pins the machine-readable shape consumed by CI.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{Analyzer: "errwrap", File: "x.go", Line: 3, Column: 7, Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"errwrap","file":"x.go","line":3,"column":7,"message":"m"}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
	str := fmt.Sprint(d)
	if str != "x.go:3:7: [errwrap] m" {
		t.Fatalf("String() = %q", str)
	}
}

// TestAllNames guards the analyzer registry the driver builds flags from.
func TestAllNames(t *testing.T) {
	var names []string
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("incomplete analyzer %+v", a)
		}
		names = append(names, a.Name)
	}
	got := strings.Join(names, ",")
	if got != "determinism,panicfree,errwrap,syncerr,lockdiscipline" {
		t.Fatalf("All() = %s", got)
	}
}

// TestDirectiveMultiAnalyzer pins the multi-analyzer directive grammar: both
// comma- and space-separated name lists suppress each named analyzer, and
// only those.
func TestDirectiveMultiAnalyzer(t *testing.T) {
	mod := parseDirectiveModule(t, `package p

var a = 1 //jetlint:allow determinism,syncerr -- both fire here
var b = 2 //jetlint:allow determinism syncerr -- space-separated works too
var c = 3 //jetlint:allow determinism, syncerr -- comma plus space too
`)
	allows, malformed := collectDirectives(mod)
	if len(malformed) != 0 {
		t.Fatalf("malformed = %v", malformed)
	}
	byLine := allows["d.go"]
	if byLine == nil {
		t.Fatal("no directives collected for d.go")
	}
	for _, line := range []int{3, 4, 5} {
		dirs := byLine[line]
		if len(dirs) != 1 {
			t.Fatalf("line %d: %d directives, want 1", line, len(dirs))
		}
		d := dirs[0]
		if len(d.analyzers) != 2 || !d.analyzers["determinism"] || !d.analyzers["syncerr"] {
			t.Errorf("line %d: analyzers = %v, want determinism+syncerr", line, d.analyzers)
		}
		for _, name := range []string{"determinism", "syncerr"} {
			if !suppressed(allows, Diagnostic{Analyzer: name, File: "d.go", Line: line}) {
				t.Errorf("line %d: %s not suppressed", line, name)
			}
		}
		if suppressed(allows, Diagnostic{Analyzer: "errwrap", File: "d.go", Line: line}) {
			t.Errorf("line %d: errwrap suppressed without being named", line)
		}
	}
}

// TestStaleDirectives checks that an allow directive suppressing nothing is
// reported as its own diagnostic — but only for analyzers that actually ran,
// so partial runs don't cry wolf.
func TestStaleDirectives(t *testing.T) {
	mod := parseDirectiveModule(t, `package p

var a = 1 //jetlint:allow determinism,syncerr -- neither fires here
`)
	allows, _ := collectDirectives(mod)
	stale := staleDirectives(allows, map[string]bool{"determinism": true})
	if len(stale) != 1 {
		t.Fatalf("stale = %v, want exactly the ran-but-unused determinism", stale)
	}
	d := stale[0]
	if d.Analyzer != "jetlint" || d.File != "d.go" || d.Line != 3 ||
		!strings.Contains(d.Message, "determinism") {
		t.Fatalf("stale diagnostic = %+v", d)
	}
	if strings.Contains(d.Message, "syncerr") {
		t.Fatal("syncerr did not run; its directive half must not be reported")
	}

	// Once the directive suppresses a determinism diagnostic, it is earned.
	if !suppressed(allows, Diagnostic{Analyzer: "determinism", File: "d.go", Line: 3}) {
		t.Fatal("directive did not suppress")
	}
	if got := staleDirectives(allows, map[string]bool{"determinism": true}); len(got) != 0 {
		t.Fatalf("used directive reported stale: %v", got)
	}
}

// parseDirectiveModule builds a one-file module in memory for directive
// tests, bypassing type checking (directives are purely lexical).
func parseDirectiveModule(t *testing.T, src string) *Module {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Module{
		Fset: fset,
		Path: "jetstream",
		Pkgs: []*Package{{Path: "jetstream", Files: []*ast.File{f}}},
	}
}

// LoadFixture parses and type-checks a single directory as one package under
// the given import path. The path override lets tests exercise analyzers
// whose scope depends on the package's location in the module (the
// determinism package list, the panic-free root boundary).
func LoadFixture(dir, importPath string) (*Module, error) {
	fset := token.NewFileSet()
	files, err := parsePackageDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	modPath := importPath
	if i := strings.Index(importPath, "/"); i >= 0 {
		modPath = importPath[:i]
	}
	rp := &rawPkg{path: importPath, dir: dir, files: files}
	return checkAll(fset, modPath, []string{importPath}, map[string]*rawPkg{importPath: rp})
}
