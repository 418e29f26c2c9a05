package jetstream

// Differential harness for the cache-conscious hot path: the degree-adaptive
// adjacency layout is a pure representation optimization, so every kernel
// must produce the same results with it as without. The comparisons run
// against the full-rebuild reference (a dense CSR with no slack and no inline
// records — maximally different memory layout, identical logical graph); the
// graph package's TestInlineMatchesRebuildAllCaps covers every other cap.

import (
	"fmt"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/core"
)

// TestInlineAdjacencyAllKernelsAllParallelisms drives every kernel at
// parallelism 1, 2, and 8 with the default inline layout (threshold 4) and
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

			ref := run(1, withGraphRebuild())
			refState, refEdges := ref.State(), ref.Graph().Edges()
			for _, p := range difftestParallelisms {
				t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
					eachFanoutArm(t, p, func(t *testing.T) *System {
						sys := run(p)
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
