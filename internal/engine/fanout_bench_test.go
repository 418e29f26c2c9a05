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

// BenchmarkFanoutBreakEven is the measurement behind fanoutMinFrontier: one
// compute phase over a frontier of F improving events on a converged
// 20k-vertex SSSP, finished on the caller versus handed to 8 PE workers at
// its first round. The constant sits where the fanout column stops losing.
func BenchmarkFanoutBreakEven(b *testing.B) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 20000, Edges: 160000, Seed: 5})
	for _, frontier := range []int{64, 256, 512, 1024, 2048, 4096, 8192} {
		for _, mode := range []struct {
			name      string
			threshold int
		}{{"caller", math.MaxInt}, {"fanout", 0}} {
			b.Run(fmt.Sprintf("frontier=%d/%s", frontier, mode.name), func(b *testing.B) {
				defer SetFanoutThresholdForTest(mode.threshold)()
				st := &stats.Counters{}
				e := New(g, a, parallelConfig(8), st)
				e.RunToConvergence()
				converged := append([]float64(nil), e.State()...)
				var reached []graph.VertexID
				for v, x := range converged {
					if x != a.Identity() && x > 0 {
						reached = append(reached, graph.VertexID(v))
					}
				}
				rng := rand.New(rand.NewSource(1))
				p0 := st.EventsProcessed
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(e.State(), converged)
					for k := 0; k < frontier; k++ {
						v := reached[rng.Intn(len(reached))]
						e.Emit(event.Event{Target: v, Value: converged[v] / 2, Source: event.NoSource})
					}
					b.StartTimer()
					e.RunCompute()
				}
				b.ReportMetric(float64(st.EventsProcessed-p0)/float64(b.N), "events/op")
			})
		}
	}
}
