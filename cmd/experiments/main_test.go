package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

const quickGolden = "../../results/experiments_quick.txt"

// timingLine matches the per-experiment wall-clock footer, the one part of
// the output that differs between runs.
var timingLine = regexp.MustCompile(`(?m)^\[\w+ completed in [0-9.]+s\]$`)

// TestQuickOutputMatchesGolden regenerates `experiments -quick` and diffs it
// against the committed copy, so any change to a table cell, a counter or a
// modeled time shows up as a diff of that file. The output is deterministic
// at any GOMAXPROCS; only the "[… completed in …]" lines are ignored.
// Regenerate after an intended change with:
//
//	UPDATE_GOLDEN=1 go test -run TestQuickOutputMatchesGolden ./cmd/experiments
func TestQuickOutputMatchesGolden(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("runs every experiment at quick scale (~10 s without the race detector)")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", true, 42); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(quickGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	strip := func(b []byte) []string {
		return strings.Split(string(timingLine.ReplaceAll(b, nil)), "\n")
	}
	got, exp := strip(buf.Bytes()), strip(want)
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("output diverges at line %d:\n got: %q\nwant: %q", i+1, got[i], exp[i])
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("output has %d lines, golden %d", len(got), len(exp))
	}
}
