package jetstream

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"strings"
	"testing"
)

const apiGolden = "results/api.txt"

const modulePath = "jetstream"

// parseDocPackage reads the non-test files of the package in dir with go/doc,
// which keeps only the exported declarations.
func parseDocPackage(t *testing.T, fset *token.FileSet, dir, importPath string) (*doc.Package, *ast.Package) {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("%s: %d packages, want 1", dir, len(pkgs))
	}
	for _, ap := range pkgs {
		return doc.New(ap, importPath, 0), ap
	}
	panic("unreachable")
}

// renderAPI prints the exported API of the root package — constants,
// variables, functions, types with their exported fields, and every exported
// method — one declaration per entry without doc comments or bodies, in
// go/doc's order. A type alias to a type of another package in the module
// (Graph = graph.CSR) is followed by that type's declaration and exported
// methods, since they are callable through the alias.
func renderAPI(t *testing.T) []byte {
	t.Helper()
	fset := token.NewFileSet()
	p, root := parseDocPackage(t, fset, ".", modulePath)
	imports := map[string]string{} // package name as used in the root → import path
	for _, f := range root.Files {
		for _, is := range f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
	}
	internal := map[string]*doc.Package{}
	var buf bytes.Buffer
	decl := func(n ast.Node) {
		var one bytes.Buffer
		if err := printer.Fprint(&one, fset, n); err != nil {
			t.Fatal(err)
		}
		// Dropped doc comments leave blank lines behind; gofmt below
		// realigns what remains.
		for _, line := range strings.Split(one.String(), "\n") {
			if strings.TrimSpace(line) != "" {
				buf.WriteString(line + "\n")
			}
		}
		buf.WriteString("\n")
	}
	fmt.Fprintf(&buf, "package %s\n\n", p.Name)
	for _, v := range append(p.Consts, p.Vars...) {
		decl(v.Decl)
	}
	for _, f := range p.Funcs {
		decl(f.Decl)
	}
	for _, ty := range p.Types {
		decl(ty.Decl)
		for _, v := range append(ty.Consts, ty.Vars...) {
			decl(v.Decl)
		}
		for _, f := range append(ty.Funcs, ty.Methods...) {
			decl(f.Decl)
		}
		ts := ty.Decl.Specs[0].(*ast.TypeSpec)
		sel, ok := ts.Type.(*ast.SelectorExpr)
		if !ts.Assign.IsValid() || !ok {
			continue
		}
		path := imports[sel.X.(*ast.Ident).Name]
		if !strings.HasPrefix(path, modulePath+"/") {
			continue
		}
		ip := internal[path]
		if ip == nil {
			ip, _ = parseDocPackage(t, fset, strings.TrimPrefix(path, modulePath+"/"), path)
			internal[path] = ip
		}
		var target *doc.Type
		for _, it := range ip.Types {
			if it.Name == sel.Sel.Name {
				target = it
			}
		}
		if target == nil {
			t.Fatalf("alias %s: no exported type %s in %s", ty.Name, sel.Sel.Name, path)
		}
		fmt.Fprintf(&buf, "// %s is %s.%s:\n", ty.Name, path, target.Name)
		decl(target.Decl)
		for _, f := range target.Methods {
			decl(f.Decl)
		}
	}
	out, err := format.Source(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAPIFile pins the root package's exported API to results/api.txt, so a
// change to the public surface is a diff of that file. Regenerate after an
// intended change with:
//
//	UPDATE_GOLDEN=1 go test -run TestAPIFile .
func TestAPIFile(t *testing.T) {
	got := renderAPI(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("missing %s (run with UPDATE_GOLDEN=1 to record): %v", apiGolden, err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exported API drifted from %s at line %d:\n got: %q\nwant: %q", apiGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exported API drifted from %s: %d lines, want %d", apiGolden, len(gl), len(wl))
	}
}
