package jetstream

import (
	"testing"

	"jetstream/internal/lint"
)

// TestJetlint runs the full static-analysis suite over the module as part of
// the ordinary test run, so an invariant regression (a time.Now in the
// engine, a severed error chain, a lock without its deferred release) fails
// go test ./... without anyone remembering to run the linter.
func TestJetlint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := lint.Run(mod, lint.All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
