package jetstream

// Differential test harness for the parallel execution engine: every
// algorithm is driven through the same randomized insert/delete batch stream
// at parallelism 1, 2, and 8, and each configuration's streaming state is
// checked against the sequential from-scratch reference solver
// (internal/algo/ref.go, reached through System.Verify). Monotonic kernels
// must match the reference exactly at every parallelism — they converge to
// the unique fixpoint under any event ordering. Accumulative kernels carry
// the epsilon-truncation bound (core.Tolerance): processing order decides
// which sub-epsilon deltas are suppressed.
//
// These graphs are far smaller than the frontier at which a compute phase
// leaves the calling goroutine, so every p>1 arm runs twice (fanoutArms): as
// shipped, and with the engine's test hook forcing each phase onto the PE
// workers — otherwise the suites would only ever test the sequential drain.

import (
	"fmt"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/core"
	"jetstream/internal/engine"
)

// difftestParallelisms are the worker counts the harness compares.
var difftestParallelisms = [...]int{1, 2, 8}

// fanoutArms are the two ways a p>1 arm runs: with the shipped fan-out
// threshold, and with every compute phase forced onto the PE workers.
var fanoutArms = [...]struct {
	name  string
	force bool
}{{"default", false}, {"fanout", true}}

// eachFanoutArm runs fn once at p == 1 and once per fanoutArms entry (as a
// subtest) above it. A forced arm must hand back the system it drove, which
// is then required to have used workers other than 0 — so the hook cannot rot
// into a no-op.
func eachFanoutArm(t *testing.T, p int, fn func(t *testing.T) *System) {
	if p == 1 {
		fn(t)
		return
	}
	for _, arm := range fanoutArms {
		t.Run(arm.name, func(t *testing.T) {
			if !arm.force {
				fn(t)
				return
			}
			defer engine.SetFanoutThresholdForTest(0)()
			requireFannedOut(t, fn(t))
		})
	}
}

// requireFannedOut fails unless some worker other than 0 processed events and
// at least one compute phase took the fan-out path.
func requireFannedOut(t testing.TB, sys *System) {
	t.Helper()
	m := sys.Metrics()
	var others uint64
	for _, w := range m.Workers[1:] {
		others += w.EventsProcessed
	}
	if others == 0 || m.ComputePhasesFanout == 0 {
		t.Fatalf("forced fan-out never reached the PE workers: %d fan-out phases, %d events on workers 1..%d",
			m.ComputePhasesFanout, others, len(m.Workers)-1)
	}
}

// difftestStream records a batch stream drawn against an evolving graph so
// the identical updates can be replayed into every parallel configuration.
func difftestStream(t *testing.T, a Algorithm, seed int64, batches, batchSize int) (*Graph, []Batch) {
	t.Helper()
	sym := algo.NeedsSymmetric(a)
	g := RMAT(RMATConfig{Vertices: 300, Edges: 2400, Seed: seed})
	if sym {
		g = Symmetrize(g)
	}
	gen := NewStream(StreamConfig{BatchSize: batchSize, InsertFrac: 0.6, MaxWeight: 8, Symmetric: sym, Seed: seed + 1})

	// Draw the stream against a throwaway system so each batch is valid for
	// the graph version it will meet during replay.
	sys, err := New(g, a, WithTiming(false), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	out := make([]Batch, batches)
	for i := range out {
		b := gen.Next(sys.Graph())
		if _, err := sys.ApplyBatch(b); err != nil {
			t.Fatalf("stream recording batch %d: %v", i, err)
		}
		out[i] = b
	}
	return g, out
}

func makeAlgByName(t *testing.T, name string) Algorithm {
	t.Helper()
	a, err := NewAlgorithm(AlgorithmSpec{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDifferentialParallelism is the harness proper: state equivalence vs the
// sequential reference for all six kernels at parallelism 1, 2, 8.
func TestDifferentialParallelism(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlgByName(t, name)
			g, stream := difftestStream(t, a, 77, 10, 24)
			exact := a.Class() == algo.Selective
			for _, p := range difftestParallelisms {
				t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
					eachFanoutArm(t, p, func(t *testing.T) *System {
						sys, err := New(g, makeAlgByName(t, name), WithTiming(false), WithParallelism(p))
						if err != nil {
							t.Fatal(err)
						}
						sys.RunInitial()
						for i, b := range stream {
							if _, err := sys.ApplyBatch(b); err != nil {
								t.Fatalf("batch %d: %v", i, err)
							}
							d := sys.Verify()
							if exact {
								if d != 0 {
									t.Fatalf("batch %d: selective state deviates from reference by %v (want exact)", i, d)
								}
								continue
							}
							tol := core.Tolerance(sys.alg, sys.Graph().NumEdges(), i+2)
							if d > tol {
								t.Fatalf("batch %d: accumulative state deviates by %v > tolerance %v", i, d, tol)
							}
						}
						return sys
					})
				})
			}
		})
	}
}

// TestDifferentialParallelismAgainstSequentialState compares the parallel
// engines' final states directly against the parallelism-1 run of the very
// same stream — a tighter check than the reference solver, since the two
// incremental runs share every intermediate graph version.
func TestDifferentialParallelismAgainstSequentialState(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlgByName(t, name)
			g, stream := difftestStream(t, a, 31, 8, 20)

			run := func(t *testing.T, p int) *System {
				sys, err := New(g, makeAlgByName(t, name), WithTiming(false), WithParallelism(p))
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

			seq := run(t, 1).State()
			for _, p := range difftestParallelisms[1:] {
				eachFanoutArm(t, p, func(t *testing.T) *System {
					sys := run(t, p)
					d := algo.MaxAbsDiff(seq, sys.State())
					if a.Class() == algo.Selective {
						if d != 0 {
							t.Errorf("p=%d: selective state differs from sequential by %v (want bitwise equal)", p, d)
						}
						return sys
					}
					tol := core.Tolerance(a, g.NumEdges(), len(stream)+1)
					if d > tol {
						t.Errorf("p=%d: accumulative state differs from sequential by %v > %v", p, d, tol)
					}
					return sys
				})
			}
		})
	}
}
