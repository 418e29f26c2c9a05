package jetstream

// Differential harness for the incremental mutation path: the same batch
// stream is replayed through the default delta-applying system and through a
// system pinned to the full-rebuild reference path (withGraphRebuild). The
// two runs must agree bitwise — both operate on the same logical graph
// content, so the event timelines are identical and no tolerance is needed,
// even for the accumulative kernels.

import (
	"testing"

	"jetstream/internal/algo"
)

// withGraphRebuild applies every batch by rebuilding the full CSR (the
// paper's simplest host model: write a new CSR, swap the pointer) instead of
// the incremental slack-based mutation — the reference side of the
// differential tests.
func withGraphRebuild() Option {
	return func(s *settings) { s.rebuild = true }
}

// TestDeltaVsRebuildAllAlgorithms drives all six kernels through identical
// streams on both mutation paths and demands bitwise-equal states plus
// identical logical graphs after every batch.
func TestDeltaVsRebuildAllAlgorithms(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlgByName(t, name)
			g, stream := difftestStream(t, a, 113, 8, 32)

			mk := func(opts ...Option) *System {
				// Parallelism 1: the parallel engine's accumulative kernels are
				// only tolerance-equal across runs; the mutation paths must be
				// compared on the deterministic sequential engine.
				opts = append([]Option{WithTiming(false), WithParallelism(1)}, opts...)
				sys, err := New(g, makeAlgByName(t, name), opts...)
				if err != nil {
					t.Fatal(err)
				}
				sys.RunInitial()
				return sys
			}
			delta := mk()
			rebuild := mk(withGraphRebuild())

			for i, b := range stream {
				if _, err := delta.ApplyBatch(b); err != nil {
					t.Fatalf("delta batch %d: %v", i, err)
				}
				if _, err := rebuild.ApplyBatch(b); err != nil {
					t.Fatalf("rebuild batch %d: %v", i, err)
				}
				dg, rg := delta.Graph(), rebuild.Graph()
				if err := dg.Validate(); err != nil {
					t.Fatalf("batch %d: delta graph invalid: %v", i, err)
				}
				de, re := dg.Edges(), rg.Edges()
				if len(de) != len(re) {
					t.Fatalf("batch %d: edge counts diverge: %d vs %d", i, len(de), len(re))
				}
				for j := range de {
					if de[j] != re[j] {
						t.Fatalf("batch %d: edge %d diverges: %+v vs %+v", i, j, de[j], re[j])
					}
				}
				if d := algo.MaxAbsDiff(delta.State(), rebuild.State()); d != 0 {
					t.Fatalf("batch %d: states differ by %v (want bitwise equal)", i, d)
				}
			}
		})
	}
}

// TestDeltaVsRebuildWithTiming repeats the comparison with the cycle model on,
// which selects the paper's request protocol and emits every event. Only the
// functional state must match bitwise: the delta path reports EdgeSlots
// (physical slots including slack) as its edge address space, so cycle
// estimates may differ between the two memory layouts.
func TestDeltaVsRebuildWithTiming(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			g, stream := difftestStream(t, makeAlgByName(t, name), 211, 5, 16)
			run := func(opts ...Option) []float64 {
				sys, err := New(g, makeAlgByName(t, name), append([]Option{WithTiming(true)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				sys.RunInitial()
				for i, b := range stream {
					if _, err := sys.ApplyBatch(b); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
				return sys.State()
			}
			if !bitwiseEqual(run(), run(withGraphRebuild())) {
				t.Fatal("timed delta and rebuild states differ (want bitwise equal)")
			}
		})
	}
}
