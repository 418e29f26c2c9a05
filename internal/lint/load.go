package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path  string // import path ("jetstream/internal/engine")
	Dir   string // directory relative to the module root
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is the loaded module: every package, in dependency order, sharing
// one FileSet so positions are comparable across packages.
type Module struct {
	Fset *token.FileSet
	Path string // module path from go.mod
	Pkgs []*Package
}

// rawPkg is a parsed-but-not-yet-checked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports map[string]bool // module-internal imports only
}

// LoadModule parses and type-checks every package under root (a module
// directory containing go.mod), including in-package test files. External
// test packages (package foo_test) and testdata/vendor/hidden directories
// are skipped. Standard-library dependencies are type-checked from GOROOT
// source, so no export data or network access is needed.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	raws := make(map[string]*rawPkg)
	for _, dir := range dirs {
		files, err := parsePackageDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{path: path, dir: rel, files: files, imports: make(map[string]bool)}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					rp.imports[ip] = true
				}
			}
		}
		raws[path] = rp
	}

	order, err := topoSort(raws)
	if err != nil {
		return nil, err
	}
	return checkAll(fset, modPath, order, raws)
}

// parsePackageDir parses the primary package of dir: its non-test files plus
// in-package test files, as a default build selects them (build constraints
// and GOOS/GOARCH suffixes honored). External test files (package foo_test)
// are skipped.
func parsePackageDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		f    *ast.File
		test bool
	}
	var all []parsed
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		all = append(all, parsed{f, strings.HasSuffix(e.Name(), "_test.go")})
	}
	primary := ""
	for _, p := range all {
		if !p.test {
			if name := p.f.Name.Name; primary == "" {
				primary = name
			} else if name != primary {
				return nil, fmt.Errorf("lint: multiple packages in %s: %s and %s", dir, primary, name)
			}
		}
	}
	if primary == "" {
		return nil, nil // test-only or empty directory
	}
	var files []*ast.File
	for _, p := range all {
		if p.f.Name.Name == primary {
			files = append(files, p.f)
		}
	}
	return files, nil
}

// topoSort orders the packages so every module-internal import precedes its
// importer.
func topoSort(raws map[string]*rawPkg) ([]string, error) {
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(raws[p].imports))
		for d := range raws[p].imports {
			if _, ok := raws[d]; ok {
				deps = append(deps, d)
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(raws))
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modImporter serves module-internal packages from the already-checked set
// and everything else from GOROOT source.
type modImporter struct {
	std  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, "", 0)
}

func checkAll(fset *token.FileSet, modPath string, order []string, raws map[string]*rawPkg) (*Module, error) {
	// The source importer would otherwise try to run cgo on packages like
	// net; the pure-Go variants type-check identically for analysis.
	build.Default.CgoEnabled = false
	imp := &modImporter{
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*types.Package),
	}
	mod := &Module{Fset: fset, Path: modPath}
	var typeErrs []error
	for _, path := range order {
		rp := raws[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		pkg, _ := conf.Check(path, fset, rp.files, info)
		imp.pkgs[path] = pkg
		mod.Pkgs = append(mod.Pkgs, &Package{
			Path: path, Dir: rp.dir, Files: rp.files, Pkg: pkg, Info: info,
		})
	}
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-10))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors:\n  %s", strings.Join(msgs, "\n  "))
	}
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}
