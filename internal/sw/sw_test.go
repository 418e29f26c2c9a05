package sw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jetstream/internal/algo"
	"jetstream/internal/graph"
	"jetstream/internal/stream"
)

func TestCostModelSeconds(t *testing.T) {
	cfg := DefaultCPUConfig()
	var c Cost
	if c.Seconds(cfg) != 0 {
		t.Error("empty cost should be 0 seconds")
	}
	c.RandomReads = 36_000_000 // 36M * 140ns / 36 cores = 140 ms
	got := c.Seconds(cfg)
	if got < 0.139 || got > 0.141 {
		t.Errorf("seconds = %v, want ~0.140", got)
	}
	// Barriers are serial: they do not divide by cores.
	c2 := Cost{Barriers: 1000}
	if s := c2.Seconds(cfg); s < 0.0149 || s > 0.0151 {
		t.Errorf("barrier seconds = %v, want ~0.015", s)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{RandomReads: 1, SeqLines: 2, Cached: 3, Atomics: 4, Ops: 5, Barriers: 6, Batches: 7}
	b := a
	b.Add(a)
	if b.RandomReads != 2 || b.SeqLines != 4 || b.Cached != 6 || b.Atomics != 8 ||
		b.Ops != 10 || b.Barriers != 12 || b.Batches != 14 {
		t.Errorf("Add broken: %+v", b)
	}
}

func TestKickStarterInitialMatchesReference(t *testing.T) {
	for _, name := range []string{"sssp", "sswp", "bfs", "cc"} {
		a, _ := algo.New(name, 0, 0)
		g := graph.RMAT(graph.RMATConfig{Vertices: 300, Edges: 2400, Seed: 3})
		if algo.NeedsSymmetric(a) {
			g = graph.Symmetrize(g)
		}
		k, err := NewKickStarter(g, a, DefaultCPUConfig())
		if err != nil {
			t.Fatal(err)
		}
		sec := k.RunInitial()
		if sec <= 0 {
			t.Errorf("%s: non-positive initial time %v", name, sec)
		}
		if d := algo.MaxAbsDiff(k.Values(), algo.Reference(a, g)); d != 0 {
			t.Errorf("%s: initial run differs from reference by %v", name, d)
		}
	}
}

func TestKickStarterStreamingMatchesReference(t *testing.T) {
	for _, name := range []string{"sssp", "sswp", "bfs", "cc"} {
		t.Run(name, func(t *testing.T) {
			a, _ := algo.New(name, 0, 0)
			g := graph.RMAT(graph.RMATConfig{Vertices: 250, Edges: 2000, Seed: 5})
			sym := algo.NeedsSymmetric(a)
			if sym {
				g = graph.Symmetrize(g)
			}
			k, _ := NewKickStarter(g, a, DefaultCPUConfig())
			k.RunInitial()
			gen := stream.NewGenerator(stream.Config{BatchSize: 50, InsertFrac: 0.5, Symmetric: sym, Seed: 7})
			for i := 0; i < 8; i++ {
				sec, err := k.ApplyBatch(gen.Next(k.Graph()))
				if err != nil {
					t.Fatal(err)
				}
				if sec <= 0 {
					t.Fatal("non-positive batch time")
				}
				if d := algo.MaxAbsDiff(k.Values(), algo.Reference(a, k.Graph())); d != 0 {
					t.Fatalf("batch %d: diverged by %v", i, d)
				}
			}
		})
	}
}

func TestKickStarterRejectsAccumulative(t *testing.T) {
	g := graph.MustBuild(2, nil)
	if _, err := NewKickStarter(g, algo.NewPageRank(0), DefaultCPUConfig()); err == nil {
		t.Error("accumulative algorithm accepted")
	}
}

func TestKickStarterCountsResets(t *testing.T) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 400, Edges: 3200, Seed: 9})
	k, _ := NewKickStarter(g, a, DefaultCPUConfig())
	k.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0, Seed: 11})
	if _, err := k.ApplyBatch(gen.Next(k.Graph())); err != nil {
		t.Fatal(err)
	}
	if k.LastResets == 0 {
		t.Error("delete-only batch reset no vertices")
	}
	if k.TotalCost().Barriers == 0 || k.TotalCost().RandomReads == 0 {
		t.Error("cost counters not populated")
	}
}

func TestGraphBoltInitialMatchesReference(t *testing.T) {
	for _, name := range []string{"pagerank", "adsorption"} {
		a, _ := algo.New(name, 0, 1e-10)
		g := graph.RMAT(graph.RMATConfig{Vertices: 250, Edges: 2000, Seed: 13})
		gb, err := NewGraphBolt(g, a, DefaultCPUConfig())
		if err != nil {
			t.Fatal(err)
		}
		gb.RunInitial()
		if d := algo.MaxAbsDiff(gb.Values(), algo.Reference(a, g)); d > 1e-7 {
			t.Errorf("%s: initial run differs by %v", name, d)
		}
	}
}

func TestGraphBoltStreamingMatchesReference(t *testing.T) {
	for _, name := range []string{"pagerank", "adsorption"} {
		t.Run(name, func(t *testing.T) {
			a, _ := algo.New(name, 0, 1e-10)
			g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 15})
			gb, _ := NewGraphBolt(g, a, DefaultCPUConfig())
			gb.RunInitial()
			gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.6, Seed: 17})
			for i := 0; i < 6; i++ {
				sec, err := gb.ApplyBatch(gen.Next(gb.Graph()))
				if err != nil {
					t.Fatal(err)
				}
				if sec <= 0 {
					t.Fatal("non-positive batch time")
				}
				tol := a.Epsilon() * 10 * float64(gb.Graph().NumEdges()) * float64(i+1)
				if d := algo.MaxAbsDiff(gb.Values(), algo.Reference(a, gb.Graph())); d > tol {
					t.Fatalf("batch %d: diverged by %v (tol %v)", i, d, tol)
				}
			}
		})
	}
}

func TestGraphBoltRejectsSelective(t *testing.T) {
	g := graph.MustBuild(2, nil)
	if _, err := NewGraphBolt(g, algo.NewSSSP(0), DefaultCPUConfig()); err == nil {
		t.Error("selective algorithm accepted")
	}
}

func TestGraphBoltIterationsTracked(t *testing.T) {
	a := algo.NewPageRank(1e-9)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 19})
	gb, _ := NewGraphBolt(g, a, DefaultCPUConfig())
	gb.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 0.5, Seed: 21})
	if _, err := gb.ApplyBatch(gen.Next(gb.Graph())); err != nil {
		t.Fatal(err)
	}
	if gb.LastIterations == 0 {
		t.Error("no refinement iterations recorded")
	}
}

func TestSmallBatchesHaveFloorCost(t *testing.T) {
	// The Fig 13 mechanism: software per-batch time flattens as batches
	// shrink because barriers and per-batch overheads do not scale down.
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 2000, Edges: 16000, Seed: 23})
	timeFor := func(size int) float64 {
		k, _ := NewKickStarter(g, a, DefaultCPUConfig())
		k.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: size, InsertFrac: 0.7, Seed: 25})
		sec, err := k.ApplyBatch(gen.Next(k.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	big, small := timeFor(1000), timeFor(10)
	if small <= 0 {
		t.Fatal("zero cost for small batch")
	}
	// A 100x smaller batch must cost much more than 1/100th the time.
	if small*20 < big {
		t.Errorf("small batch %.3gs vs big %.3gs: no fixed-cost floor", small, big)
	}
}

func TestQuickKickStarterAlwaysExact(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.ErdosRenyi(70, 350, 16, seed)
		k, _ := NewKickStarter(g, algo.NewSSSP(0), DefaultCPUConfig())
		k.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 20, InsertFrac: 0.4, Seed: seed ^ 0x77})
		for i := 0; i < 3; i++ {
			if _, err := k.ApplyBatch(gen.Next(k.Graph())); err != nil {
				return false
			}
			if algo.MaxAbsDiff(k.Values(), algo.Dijkstra(k.Graph(), 0)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestKickStarterExactAfterGuardFallback pins a seed on which trimming runs
// out of its step guard (vertices 43 and 44 lose their support and count
// each other up) before the target of deleted edge 21→61 is ever popped.
// The fallback reset must then cover the dependence subtree under every
// tagged vertex: vertex 61's child 51 was never tagged, and keeping its
// value left it 0.0433 below Dijkstra after the second batch.
func TestKickStarterExactAfterGuardFallback(t *testing.T) {
	const seed = 2781468711391247362
	g := graph.ErdosRenyi(70, 350, 16, seed)
	k, _ := NewKickStarter(g, algo.NewSSSP(0), DefaultCPUConfig())
	k.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 20, InsertFrac: 0.4, Seed: seed ^ 0x77})
	for i := 0; i < 3; i++ {
		if _, err := k.ApplyBatch(gen.Next(k.Graph())); err != nil {
			t.Fatal(err)
		}
		if d := algo.MaxAbsDiff(k.Values(), algo.Dijkstra(k.Graph(), 0)); d != 0 {
			t.Fatalf("batch %d: %g off Dijkstra", i, d)
		}
	}
}
