package jetstream

// Differential harness for the cache-conscious hot path: the degree-adaptive
// adjacency layout is a pure representation optimization, so every kernel
// must produce the same results with it on, off, or tuned to any threshold.
// The adjacency comparisons run against the full-rebuild reference (a dense
// CSR with no slack and no inline records — maximally different memory
// layout, identical logical graph).

import (
	"fmt"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/core"
)

// TestInlineAdjacencyAllKernelsAllParallelisms drives every kernel at
// parallelism 1, 2, and 8 with the inline layout forced on (threshold 4) and
// compares against the rebuild reference at parallelism 1. Selective kernels
// must match bitwise at every parallelism; accumulative kernels carry the
// usual epsilon-truncation tolerance above p=1 and must be bitwise at p=1.
// The logical graphs must be identical everywhere.
func TestInlineAdjacencyAllKernelsAllParallelisms(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlgByName(t, name)
			g, stream := difftestStream(t, a, 509, 8, 28)

			run := func(p int, opts ...Option) *System {
				t.Helper()
				opts = append([]Option{WithTiming(false), WithParallelism(p)}, opts...)
				sys, err := New(g, makeAlgByName(t, name), opts...)
				if err != nil {
					t.Fatal(err)
				}
				sys.RunInitial()
				for i, b := range stream {
					if _, err := sys.ApplyBatch(b); err != nil {
						t.Fatalf("p=%d batch %d: %v", p, i, err)
					}
				}
				return sys
			}

			ref := run(1, WithGraphRebuild())
			refState, refEdges := ref.State(), ref.Graph().Edges()
			for _, p := range difftestParallelisms {
				t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
					eachFanoutArm(t, p, func(t *testing.T) *System {
						sys := run(p, WithInlineDegree(4))
						de := sys.Graph().Edges()
						if len(de) != len(refEdges) {
							t.Fatalf("edge counts diverge: %d vs %d", len(de), len(refEdges))
						}
						for j := range de {
							if de[j] != refEdges[j] {
								t.Fatalf("edge %d diverges: %+v vs %+v", j, de[j], refEdges[j])
							}
						}
						d := algo.MaxAbsDiff(sys.State(), refState)
						if p == 1 || a.Class() == algo.Selective {
							if d != 0 {
								t.Fatalf("p=%d: state differs from rebuild reference by %v (want bitwise equal)", p, d)
							}
							return sys
						}
						tol := core.Tolerance(a, sys.Graph().NumEdges(), len(stream)+1)
						if d > tol {
							t.Fatalf("p=%d: accumulative state differs by %v > tolerance %v", p, d, tol)
						}
						return sys
					})
				})
			}
		})
	}
}

// TestInlineThresholdsAgree pins that every inline threshold (including off)
// yields the bitwise-identical system: the knob moves adjacencies between
// representations, never changes what they contain.
func TestInlineThresholdsAgree(t *testing.T) {
	a := makeAlgByName(t, "pagerank")
	g, stream := difftestStream(t, a, 613, 6, 24)
	run := func(deg int) []float64 {
		sys, err := New(g, makeAlgByName(t, "pagerank"), WithTiming(false), WithParallelism(1), WithInlineDegree(deg))
		if err != nil {
			t.Fatal(err)
		}
		sys.RunInitial()
		for i, b := range stream {
			if _, err := sys.ApplyBatch(b); err != nil {
				t.Fatalf("deg=%d batch %d: %v", deg, i, err)
			}
		}
		return sys.State()
	}
	base := run(-1) // uniform slab
	for _, deg := range []int{1, 2, 4} {
		if d := algo.MaxAbsDiff(base, run(deg)); d != 0 {
			t.Fatalf("inline threshold %d changed state by %v (want bitwise equal)", deg, d)
		}
	}
}
