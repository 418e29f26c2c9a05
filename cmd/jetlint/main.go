// Command jetlint runs the repo's custom static-analysis suite (internal/lint)
// over the module: the determinism, panicfree, errwrap, syncerr and
// lockdiscipline analyzers. go test ./... runs the same suite (TestJetlint);
// this command is for running it alone, or one analyzer at a time.
//
// Usage:
//
//	go run ./cmd/jetlint ./...
//	go run ./cmd/jetlint -json ./internal/engine/...
//	go run ./cmd/jetlint -determinism=false ./...
//
// Each analyzer has an enable flag named after it (default true). Positional
// arguments restrict which packages' diagnostics are reported (./... means
// everything); the whole module is always loaded so module-wide analyses see
// every package. -json selects machine-readable output.
// Exit status: 0 clean, 1 diagnostics reported, 2 load or type-check failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jetstream/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	analyzers := lint.All()
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: jetlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jetlint:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jetlint:", err)
		os.Exit(2)
	}
	var run []*lint.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}
	diags := lint.Run(mod, run)
	diags = filterPatterns(diags, root, flag.Args())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "jetlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPatterns keeps diagnostics whose file matches one of the package
// patterns: "./..." keeps everything, "./dir/..." keeps the subtree,
// "./dir" keeps that directory only. No patterns means everything.
func filterPatterns(diags []lint.Diagnostic, root string, patterns []string) []lint.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keep := diags[:0]
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			rel = d.File
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, pat := range patterns {
			if matchPattern(dir, pat) {
				keep = append(keep, d)
				break
			}
		}
	}
	return keep
}

func matchPattern(dir, pat string) bool {
	pat = filepath.ToSlash(pat)
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." || pat == "" {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return dir == sub || strings.HasPrefix(dir, sub+"/")
	}
	if dir == "." {
		return pat == "."
	}
	return dir == pat
}
