package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
)

// benchSubject is one converged engine plus what a benchmark needs to put it
// back: the converged state and the vertices a frontier may be drawn from.
type benchSubject struct {
	e         *Engine
	st        *stats.Counters
	converged []float64
	reached   []graph.VertexID
	improve   func(x float64) float64
}

// newBenchSubject converges alg over g and keeps the vertices whose state an
// improving event can still move (finite, not Identity, not already optimal).
// improve maps a converged state to the value of an event that beats it — or,
// for an accumulative kernel, to the delta the event carries.
func newBenchSubject(g *graph.CSR, a algo.Algorithm, cfg Config, improve func(float64) float64) *benchSubject {
	s := &benchSubject{st: &stats.Counters{}, improve: improve}
	s.e = New(g, a, cfg, s.st)
	s.e.RunToConvergence()
	s.converged = append([]float64(nil), s.e.State()...)
	for v, x := range s.converged {
		if x != a.Identity() && !math.IsInf(x, 0) && improve(x) != x {
			s.reached = append(s.reached, graph.VertexID(v))
		}
	}
	return s
}

// seed restores the converged state and queues a frontier of improving
// events on vertices drawn by rng.
func (s *benchSubject) seed(rng *rand.Rand, frontier int) {
	copy(s.e.State(), s.converged)
	for k := 0; k < frontier; k++ {
		v := s.reached[rng.Intn(len(s.reached))]
		s.e.Emit(event.Event{Target: v, Value: s.improve(s.converged[v]), Source: event.NoSource})
	}
}

func halve(x float64) float64 { return x / 2 }

// BenchmarkFanoutBreakEven is the measurement behind fanoutMinFrontier and
// fanoutMinCores: one compute phase over a frontier of F improving events on
// a converged 20k-vertex SSSP, finished on the caller versus handed to the PE
// workers at its first round, at 2 and at 8 workers. The hook pins the path,
// so the fanout column is taken on however many cores the box has — read the
// table with GOMAXPROCS in hand (DESIGN.md §7).
func BenchmarkFanoutBreakEven(b *testing.B) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 20000, Edges: 160000, Seed: 5})
	for _, workers := range []int{2, 8} {
		for _, frontier := range []int{64, 256, 512, 1024, 2048, 4096, 8192, 16384} {
			for _, mode := range []struct {
				name      string
				threshold int
			}{{"caller", math.MaxInt}, {"fanout", 0}} {
				b.Run(fmt.Sprintf("workers=%d/frontier=%d/%s", workers, frontier, mode.name), func(b *testing.B) {
					defer SetFanoutThresholdForTest(mode.threshold)()
					s := newBenchSubject(g, a, parallelConfig(workers), halve)
					rng := rand.New(rand.NewSource(1))
					p0 := s.st.EventsProcessed
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						s.seed(rng, frontier)
						b.StartTimer()
						s.e.RunCompute()
					}
					b.ReportMetric(float64(s.st.EventsProcessed-p0)/float64(b.N), "events/op")
				})
			}
		}
	}
}

// BenchmarkEventLoop is the home of the engine's ns-per-event figure: one
// converged graph, a 1024-event frontier of improving events, one compute
// phase at parallelism 1 — a queue pop, a state read, a Reduce and an
// adjacency walk per event, nothing else. One row per Reduce class (min:
// SSSP, max: SSWP, sum: PageRank, whose frontier carries deltas) and graph
// size; ns/event divides by events processed, ns/edge by edges read.
func BenchmarkEventLoop(b *testing.B) {
	const frontier = 1024
	kernels := []struct {
		name    string
		alg     algo.Algorithm
		improve func(float64) float64
	}{
		{"min", algo.NewSSSP(0), halve},
		{"max", algo.NewSSWP(0), func(x float64) float64 { return 2 * x }},
		{"sum", algo.NewPageRank(0), func(float64) float64 { return 1e-3 }},
	}
	graphs := []struct {
		name string
		cfg  graph.RMATConfig
	}{
		{"V4k_E64k", graph.RMATConfig{Vertices: 4000, Edges: 64000, Seed: 5}},
		{"V20k_E160k", graph.RMATConfig{Vertices: 20000, Edges: 160000, Seed: 5}},
	}
	for _, k := range kernels {
		for _, gr := range graphs {
			b.Run(k.name+"/"+gr.name, func(b *testing.B) {
				s := newBenchSubject(graph.RMAT(gr.cfg), k.alg, parallelConfig(1), k.improve)
				rng := rand.New(rand.NewSource(1))
				p0, e0 := s.st.EventsProcessed, s.st.EdgeReads
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s.seed(rng, frontier)
					b.StartTimer()
					s.e.RunCompute()
				}
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(ns/float64(s.st.EventsProcessed-p0), "ns/event")
				b.ReportMetric(ns/float64(s.st.EdgeReads-e0), "ns/edge")
			})
		}
	}
}
