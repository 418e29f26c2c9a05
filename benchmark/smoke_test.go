package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke is the -smoke pass: every workload end to end and traced at tiny
// sizes against the real daemon. It checks function, not speed: every run is
// correct, every metric BENCHMARK.json names is produced and no other, and a
// corrupted reference state is caught.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	bin, _, err := buildDaemon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opt := runOptions{seed: 1, seconds: 0.25, lives: 2, probeTime: 20 * time.Millisecond, simBatches: 5, traceBatches: 8, daemonBin: bin}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	verify := func(r *result, err error, defs []metricDef) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct() {
			t.Errorf("%s: %d of %d operations failed: %v", r.workload, r.failed, r.attempted, r.firstErr)
		}
		if _, err := r.jsonLine(defs); err != nil {
			t.Error(err)
		}
		for name := range r.metrics {
			if !known[name] {
				t.Errorf("%s: harness emits %q, which BENCHMARK.json does not name", r.workload, name)
			}
		}
	}
	ws := workloads(40)
	for _, w := range ws {
		r, err := runWorkload(ctx, w, opt)
		verify(r, err, endToEnd)
		r, err = runTraced(ctx, w, opt)
		verify(r, err, perLayer)
	}

	opt.corruptRef = true
	for _, w := range []workload{ws[0], ws[3]} {
		r, err := runWorkload(ctx, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.correct() {
			t.Errorf("%s: a corrupted reference state went unnoticed", w.name)
		}
	}
}
