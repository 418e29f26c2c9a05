package jetstream

import (
	"runtime"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 500, Edges: 4000, Seed: 1})
	sys, err := New(g, SSSP(0), WithTiming(true))
	if err != nil {
		t.Fatal(err)
	}
	init := sys.RunInitial()
	if init.Cycles == 0 || init.Duration <= 0 {
		t.Fatalf("initial run: %+v", init)
	}
	gen := NewStream(StreamConfig{BatchSize: 50, InsertFrac: 0.7, Seed: 2})
	res, err := sys.ApplyBatch(gen.Next(sys.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Cycles >= init.Cycles {
		t.Errorf("batch cycles %d should be positive and below cold start %d", res.Cycles, init.Cycles)
	}
	if d := sys.Verify(); d != 0 {
		t.Errorf("Verify = %v", d)
	}
	if sys.TotalStats().Cycles != init.Cycles+res.Cycles {
		t.Errorf("total cycles %d != %d + %d", sys.TotalStats().Cycles, init.Cycles, res.Cycles)
	}
}

func TestApplyBeforeInitialRejected(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100, Edges: 500, Seed: 3})
	sys, _ := New(g, BFS(0))
	if _, err := sys.ApplyBatch(Batch{}); err == nil {
		t.Error("ApplyBatch before RunInitial accepted")
	}
}

func TestCCRequiresSymmetric(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100, Edges: 500, Seed: 4})
	if _, err := New(g, CC()); err == nil {
		t.Error("asymmetric graph accepted for CC")
	}
	if _, err := New(Symmetrize(g), CC()); err != nil {
		t.Errorf("symmetric graph rejected: %v", err)
	}
}

func TestAllAlgorithmsThroughPublicAPI(t *testing.T) {
	for _, name := range []string{"sssp", "sswp", "bfs", "cc", "pagerank", "adsorption"} {
		t.Run(name, func(t *testing.T) {
			a, err := NewAlgorithm(AlgorithmSpec{Name: name, Eps: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 5})
			var gen *StreamGenerator
			if name == "cc" {
				g = Symmetrize(g)
				gen = NewStream(StreamConfig{BatchSize: 30, InsertFrac: 0.5, Symmetric: true, Seed: 6})
			} else {
				gen = NewStream(StreamConfig{BatchSize: 30, InsertFrac: 0.5, Seed: 6})
			}
			sys, err := New(g, a, WithTiming(false))
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			for i := 0; i < 3; i++ {
				if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
					t.Fatal(err)
				}
			}
			tol := 0.0
			if name == "pagerank" || name == "adsorption" {
				tol = 1e-3
			}
			if d := sys.Verify(); d > tol {
				t.Errorf("diverged by %v", d)
			}
		})
	}
}

func TestOptLevelsThroughPublicAPI(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 300, Edges: 2400, Seed: 7})
	for _, opt := range []OptLevel{OptBase, OptVAP, OptDAP} {
		sys, err := New(g, SSWP(0), WithOpt(opt), WithTiming(false))
		if err != nil {
			t.Fatal(err)
		}
		sys.RunInitial()
		gen := NewStream(StreamConfig{BatchSize: 40, InsertFrac: 0.3, Seed: 8})
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
		if d := sys.Verify(); d != 0 {
			t.Errorf("%v: diverged by %v", opt, d)
		}
	}
}

func TestBatchResultStats(t *testing.T) {
	// The web-crawl backbone makes every vertex reachable from 0, so a
	// delete-only batch is guaranteed to hit dependence edges.
	g := WebCrawl(WebCrawlConfig{Vertices: 400, AvgDegree: 5, Seed: 9})
	sys, _ := New(g, SSSP(0))
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 60, InsertFrac: 0, Seed: 10})
	res, err := sys.ApplyBatch(gen.Next(sys.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsProcessed == 0 {
		t.Error("batch processed no events")
	}
	if res.Stats.VerticesReset == 0 {
		t.Error("delete-only batch reset nothing")
	}
}

func TestWithSlices(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 800, Edges: 6000, Seed: 11})
	sys, _ := New(g, BFS(0), WithSlices(3))
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 40, InsertFrac: 0.5, Seed: 12})
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
		t.Fatal(err)
	}
	if d := sys.Verify(); d != 0 {
		t.Errorf("sliced system diverged by %v", d)
	}
	if sys.TotalStats().SpillBytes == 0 {
		t.Error("sliced system spilled nothing")
	}
}

// TestSystemConstructionCheap pins the tenancy contract end to end: New does
// no per-vertex work — engine state, dependency arrays and queue slots all
// materialize on first use — so a server can declare thousands of Systems
// over large graphs and pay only for the ones that stream. 2000 Systems over
// a shared 100k-vertex graph would cost >1.6 GB with eager per-vertex state
// (100k vertices x 8 B x 2000, before dep arrays and queue slots).
func TestSystemConstructionCheap(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100_000, Edges: 200_000, Seed: 1})

	const systems = 2000
	keep := make([]*System, 0, systems)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < systems; i++ {
		s, err := New(g, SSSP(0))
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		keep = append(keep, s)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// Generous ceiling: ~32 KB per dormant System covers the fixed structs and
	// the metrics registry with headroom while staying two orders of magnitude
	// below the eager per-vertex cost.
	const budget = systems * 32 << 10
	if used := after.HeapAlloc - before.HeapAlloc; used > budget {
		t.Fatalf("%d dormant systems hold %d bytes, budget %d: construction is no longer O(1) in vertex count",
			systems, used, budget)
	}

	// A dormant System is still fully functional.
	keep[0].RunInitial()
	if got := len(keep[0].StateRef()); got != g.NumVertices() {
		t.Fatalf("state has %d vertices, want %d", got, g.NumVertices())
	}
	runtime.KeepAlive(keep)
}
