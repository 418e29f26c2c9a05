package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"jetstream/internal/algo"
	"jetstream/internal/engine"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
	"jetstream/internal/stream"
)

func cfgOpt(opt OptLevel, timing bool) Config {
	c := ConfigWithOpt(opt)
	c.Engine.Timing = timing
	return c
}

// fig2Graph is the paper's Fig 2 example: A=0..E=4.
func fig2Graph() *graph.CSR {
	return graph.MustBuild(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 7}, {Src: 0, Dst: 2, Weight: 3},
		{Src: 1, Dst: 3, Weight: 5},
		{Src: 2, Dst: 3, Weight: 8}, {Src: 2, Dst: 4, Weight: 2},
		{Src: 3, Dst: 4, Weight: 6},
		{Src: 4, Dst: 1, Weight: 7},
	})
}

// TestFig2MotivatingExample reproduces §2.2: deleting A->C after an SSSP
// evaluation must converge to the correct new distances, the case where
// reusing the stale state naively never recovers.
func TestFig2MotivatingExample(t *testing.T) {
	for _, opt := range []OptLevel{OptBase, OptVAP, OptDAP} {
		t.Run(opt.String(), func(t *testing.T) {
			js := New(fig2Graph(), algo.NewSSSP(0), cfgOpt(opt, false), nil)
			js.RunInitial()
			if err := js.ApplyBatch(graph.Batch{Deletes: []graph.Edge{{Src: 0, Dst: 2, Weight: 3}}}); err != nil {
				t.Fatal(err)
			}
			want := []float64{0, 7, math.Inf(1), 12, 18}
			for i, w := range want {
				if js.State()[i] != w {
					t.Errorf("state[%d]=%v, want %v", i, js.State()[i], w)
				}
			}
			if d := js.Verify(); d != 0 {
				t.Errorf("Verify = %v", d)
			}
		})
	}
}

// fig4Graph is the paper's Fig 4 example: A=0 B=1 C=2 D=3 E=4 F=5 G=6.
func fig4Graph() *graph.CSR {
	return graph.MustBuild(7, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 8}, {Src: 0, Dst: 2, Weight: 9},
		{Src: 1, Dst: 3, Weight: 4}, {Src: 1, Dst: 4, Weight: 8},
		{Src: 2, Dst: 4, Weight: 5}, {Src: 2, Dst: 5, Weight: 8},
		{Src: 3, Dst: 6, Weight: 7},
		{Src: 4, Dst: 5, Weight: 3}, {Src: 4, Dst: 6, Weight: 5},
		{Src: 6, Dst: 4, Weight: 3},
	})
}

func TestFig4InsertAndDelete(t *testing.T) {
	// Insert A->D (weight 8) then delete A->C, mirroring Fig 4(b)-(d).
	js := New(fig4Graph(), algo.NewSSSP(0), cfgOpt(OptDAP, false), nil)
	js.RunInitial()
	if err := js.ApplyBatch(graph.Batch{Inserts: []graph.Edge{{Src: 0, Dst: 3, Weight: 8}}}); err != nil {
		t.Fatal(err)
	}
	if d := js.Verify(); d != 0 {
		t.Fatalf("after insertion: Verify = %v", d)
	}
	if err := js.ApplyBatch(graph.Batch{Deletes: []graph.Edge{{Src: 0, Dst: 2, Weight: 9}}}); err != nil {
		t.Fatal(err)
	}
	if d := js.Verify(); d != 0 {
		t.Fatalf("after deletion: Verify = %v", d)
	}
	// Fig 8(c): E is reached via B and F via E after the deletion.
	want := algo.Dijkstra(js.Graph(), 0)
	if js.State()[4] != want[4] || js.State()[5] != want[5] {
		t.Errorf("E,F = %v,%v want %v,%v", js.State()[4], js.State()[5], want[4], want[5])
	}
}

func TestStreamingSelectiveAllOptsMatchReference(t *testing.T) {
	for _, name := range []string{"sssp", "sswp", "bfs", "cc"} {
		for _, opt := range []OptLevel{OptBase, OptVAP, OptDAP} {
			t.Run(name+"/"+opt.String(), func(t *testing.T) {
				a, _ := algo.New(name, 0, 0)
				g := graph.RMAT(graph.RMATConfig{Vertices: 300, Edges: 2400, Seed: 11})
				sym := algo.NeedsSymmetric(a)
				if sym {
					g = graph.Symmetrize(g)
				}
				js := New(g, a, cfgOpt(opt, false), nil)
				js.RunInitial()
				gen := stream.NewGenerator(stream.Config{
					BatchSize: 60, InsertFrac: 0.5, Symmetric: sym, Seed: 7,
				})
				for batch := 0; batch < 8; batch++ {
					b := gen.Next(js.Graph())
					if err := js.ApplyBatch(b); err != nil {
						t.Fatal(err)
					}
					if d := js.Verify(); d != 0 {
						t.Fatalf("batch %d: diverged from reference by %v", batch, d)
					}
				}
			})
		}
	}
}

func TestStreamingAccumulativeMatchesReference(t *testing.T) {
	for _, name := range []string{"pagerank", "adsorption"} {
		t.Run(name, func(t *testing.T) {
			a, _ := algo.New(name, 0, 1e-10)
			g := graph.RMAT(graph.RMATConfig{Vertices: 250, Edges: 2000, Seed: 13})
			js := New(g, a, cfgOpt(OptDAP, false), nil)
			js.RunInitial()
			gen := stream.NewGenerator(stream.Config{BatchSize: 50, InsertFrac: 0.6, Seed: 3})
			for batch := 0; batch < 6; batch++ {
				b := gen.Next(js.Graph())
				if err := js.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				tol := Tolerance(a, js.Graph().NumEdges(), batch+1)
				if d := js.Verify(); d > tol {
					t.Fatalf("batch %d: diverged by %v (tol %v)", batch, d, tol)
				}
			}
		})
	}
}

func TestStreamingOnWebGraph(t *testing.T) {
	// Long-path topology stresses deep delete propagation.
	g := graph.WebCrawl(graph.WebCrawlConfig{Vertices: 600, AvgDegree: 5, Seed: 2})
	for _, opt := range []OptLevel{OptBase, OptVAP, OptDAP} {
		a := algo.NewSSSP(0)
		js := New(g, a, cfgOpt(opt, false), nil)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.3, Seed: 5})
		for batch := 0; batch < 5; batch++ {
			if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
				t.Fatal(err)
			}
			if d := js.Verify(); d != 0 {
				t.Fatalf("%v batch %d: diverged by %v", opt, batch, d)
			}
		}
	}
}

func TestDeleteOnlyAndInsertOnlyBatches(t *testing.T) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 17})
	for _, frac := range []float64{0, 1} {
		js := New(g, a, cfgOpt(OptDAP, false), nil)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: frac, Seed: 9})
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		if d := js.Verify(); d != 0 {
			t.Fatalf("frac=%v: diverged by %v", frac, d)
		}
	}
}

func TestInsertOnlyBatchTriggersNoResets(t *testing.T) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 19})
	st := &stats.Counters{}
	js := New(g, a, cfgOpt(OptDAP, false), st)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 1, Seed: 1})
	if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
		t.Fatal(err)
	}
	if st.VerticesReset != 0 {
		t.Errorf("insert-only batch reset %d vertices", st.VerticesReset)
	}
	if st.RequestsIssued != 0 {
		t.Errorf("insert-only batch issued %d requests", st.RequestsIssued)
	}
}

func TestOptimizationsShrinkResetSet(t *testing.T) {
	// Fig 12's premise: Base tags the most vertices; VAP and DAP prune.
	// Distinct weights make VAP effective on SSSP.
	g := graph.RMAT(graph.RMATConfig{Vertices: 500, Edges: 4000, Seed: 23, MaxWeight: 1000})
	resets := map[OptLevel]uint64{}
	for _, opt := range []OptLevel{OptBase, OptVAP, OptDAP} {
		st := &stats.Counters{}
		js := New(g, algo.NewSSSP(0), cfgOpt(opt, false), st)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0, Seed: 31})
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		resets[opt] = st.VerticesReset
	}
	if resets[OptVAP] > resets[OptBase] {
		t.Errorf("VAP resets %d > Base %d", resets[OptVAP], resets[OptBase])
	}
	if resets[OptDAP] > resets[OptBase] {
		t.Errorf("DAP resets %d > Base %d", resets[OptDAP], resets[OptBase])
	}
	if resets[OptDAP] == 0 && resets[OptBase] > 0 {
		t.Log("note: DAP pruned every reset") // legal, just informative
	}
}

func TestVAPIneffectiveForBFSLikeValues(t *testing.T) {
	// §5.2: "a BFS algorithm sets all nodes to the same value, and VAP
	// cannot exclude any vertex based on value" — DAP must prune at least
	// as well as VAP on BFS.
	g := graph.RMAT(graph.RMATConfig{Vertices: 400, Edges: 3000, Seed: 29})
	run := func(opt OptLevel) uint64 {
		st := &stats.Counters{}
		js := New(g, algo.NewBFS(0), cfgOpt(opt, false), st)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 0, Seed: 41})
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		return st.VerticesReset
	}
	if dap, vap := run(OptDAP), run(OptVAP); dap > vap {
		t.Errorf("DAP resets %d > VAP resets %d on BFS", dap, vap)
	}
}

func TestAccumulativeBatchCompositionInsensitive(t *testing.T) {
	// §6.2 Fig 14: "for PageRank ... both types of updates are handled
	// similarly" — insert-only and delete-only batches take the same path
	// (dirty-vertex negation + re-add), so neither needs resets.
	a := algo.NewPageRank(1e-9)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1500, Seed: 37})
	st := &stats.Counters{}
	js := New(g, a, cfgOpt(OptDAP, false), st)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 0, Seed: 43})
	if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
		t.Fatal(err)
	}
	if st.VerticesReset != 0 {
		t.Errorf("accumulative path reset %d vertices", st.VerticesReset)
	}
	tol := Tolerance(a, js.Graph().NumEdges(), 1)
	if d := js.Verify(); d > tol {
		t.Fatalf("delete-only PageRank diverged by %v", d)
	}
}

func TestIncrementalBeatsColdStart(t *testing.T) {
	// The headline claim: a small streaming batch costs far fewer cycles
	// than recomputing from scratch on the same hardware configuration.
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 4000, Edges: 40000, Seed: 47})
	js := New(g, a, cfgOpt(OptDAP, true), nil)
	js.RunInitial()
	coldCycles := js.Cycles()

	gen := stream.NewGenerator(stream.Config{BatchSize: 50, InsertFrac: 0.7, Seed: 51})
	before := js.Cycles()
	if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
		t.Fatal(err)
	}
	incCycles := js.Cycles() - before
	if d := js.Verify(); d != 0 {
		t.Fatalf("diverged by %v", d)
	}
	if incCycles*2 >= coldCycles {
		t.Errorf("incremental batch (%d cycles) not clearly cheaper than cold start (%d)", incCycles, coldCycles)
	}
}

func TestTimingDoesNotChangeResults(t *testing.T) {
	a := algo.NewSSWP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 300, Edges: 2400, Seed: 53})
	run := func(timing bool) []float64 {
		js := New(g, a, cfgOpt(OptDAP, timing), nil)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.5, Seed: 59})
		for i := 0; i < 3; i++ {
			if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, len(js.State()))
		copy(out, js.State())
		return out
	}
	if d := algo.MaxAbsDiff(run(true), run(false)); d != 0 {
		t.Errorf("timing changed results by %v", d)
	}
}

func TestCoalescingReenabledAfterDAPRecovery(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 100, Edges: 800, Seed: 61})
	js := New(g, algo.NewSSSP(0), cfgOpt(OptDAP, false), nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 20, InsertFrac: 0.5, Seed: 67})
	if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
		t.Fatal(err)
	}
	if !js.Engine().Queue().CoalescingEnabled() {
		t.Error("coalescing left disabled after recovery phase")
	}
}

func TestApplyBatchRejectsInvalid(t *testing.T) {
	js := New(fig2Graph(), algo.NewSSSP(0), cfgOpt(OptDAP, false), nil)
	js.RunInitial()
	if err := js.ApplyBatch(graph.Batch{Deletes: []graph.Edge{{Src: 4, Dst: 0, Weight: 1}}}); err == nil {
		t.Error("delete of missing edge accepted")
	}
	// State must be untouched by the failed batch.
	if d := js.Verify(); d != 0 {
		t.Errorf("failed batch perturbed state by %v", d)
	}
}

func TestPartitionedStreamingMatchesReference(t *testing.T) {
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 600, Edges: 5000, Seed: 71})
	cfg := cfgOpt(OptDAP, true)
	cfg.Slices = 3
	js := New(g, a, cfg, nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.5, Seed: 73})
	for i := 0; i < 3; i++ {
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		if d := js.Verify(); d != 0 {
			t.Fatalf("batch %d diverged by %v", i, d)
		}
	}
	if js.Stats().SpillBytes == 0 {
		t.Error("partitioned run produced no spill traffic")
	}
}

func TestQuickStreamingSSSPAlwaysExact(t *testing.T) {
	// Property: for any random graph and any random valid batch, JetStream's
	// post-batch state equals Dijkstra on the mutated graph, at every
	// optimization level.
	f := func(seed int64, optPick uint8) bool {
		opt := OptLevel(optPick % 3)
		g := graph.ErdosRenyi(80, 500, 32, seed)
		js := New(g, algo.NewSSSP(0), cfgOpt(opt, false), nil)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 24, InsertFrac: 0.4, Seed: seed ^ 0x5a5a})
		for i := 0; i < 3; i++ {
			if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
				return false
			}
			if js.Verify() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStreamingCCAlwaysExact(t *testing.T) {
	// CC exercises the equal-value regime where VAP cannot prune and
	// component splits force full re-derivation through requests.
	f := func(seed int64, optPick uint8) bool {
		opt := OptLevel(optPick % 3)
		g := graph.Symmetrize(graph.ErdosRenyi(60, 150, 8, seed))
		js := New(g, algo.NewCC(), cfgOpt(opt, false), nil)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 16, InsertFrac: 0.4, Symmetric: true, Seed: seed ^ 0x33})
		for i := 0; i < 3; i++ {
			if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
				return false
			}
			if js.Verify() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineReuseAcrossManyBatches(t *testing.T) {
	// Long-running stream: 20 consecutive batches stay exact.
	a := algo.NewBFS(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 250, Edges: 2000, Seed: 79})
	js := New(g, a, cfgOpt(OptDAP, false), nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 0.5, Seed: 83})
	for i := 0; i < 20; i++ {
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		if d := js.Verify(); d != 0 {
			t.Fatalf("batch %d diverged by %v", i, d)
		}
	}
}

func TestDefaultConfigsConsistent(t *testing.T) {
	if DefaultConfig().Opt != OptDAP {
		t.Error("default opt should be DAP")
	}
	if ConfigWithOpt(OptVAP).Engine.VertexBytes != 8 {
		t.Error("VAP should not pay the dependency-field footprint")
	}
	if ConfigWithOpt(OptDAP).Engine.VertexBytes != 12 {
		t.Error("DAP must pay the dependency-field footprint")
	}
	if OptBase.String() != "base" || OptVAP.String() != "vap" || OptDAP.String() != "dap" {
		t.Error("OptLevel strings wrong")
	}
	if OptLevel(9).String() == "" {
		t.Error("unknown OptLevel must still print")
	}
}

func TestAblationTwoPhaseAccumulateCorrect(t *testing.T) {
	// The paper-literal two-phase rollback must converge to the same result
	// as the fused net-event path.
	a := algo.NewPageRank(1e-10)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 91})
	cfg := cfgOpt(OptDAP, false)
	cfg.TwoPhaseAccumulate = true
	js := New(g, a, cfg, nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.6, Seed: 93})
	for i := 0; i < 4; i++ {
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		tol := Tolerance(a, js.Graph().NumEdges(), i+1)
		if d := js.Verify(); d > tol {
			t.Fatalf("batch %d diverged by %v (tol %v)", i, d, tol)
		}
	}
}

// TestTwoPhaseFanoutReadsSupersededVersion runs the two-phase ablation with
// every phase handed to 8 PE workers. Its rollback phase is a compute phase
// over the graph version the batch has just superseded — the one place where
// several goroutines read a frozen version at once (undo lookups, chain
// walks, segments the setup scan has just rebuilt and published), which is
// what -race is pointed at; graph.TestConcurrentFirstReads races the rebuilds
// themselves. The superseded version must come out of the batch serving
// exactly its old edge set, and the fanned-out run must stay within the
// tolerance the sequential ablation is held to.
func TestTwoPhaseFanoutReadsSupersededVersion(t *testing.T) {
	defer engine.SetFanoutThresholdForTest(0)()
	a := algo.NewPageRank(1e-10)
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 91})
	cfg := cfgOpt(OptDAP, false)
	cfg.TwoPhaseAccumulate = true
	cfg.Engine.Parallelism = 8
	js := New(g, a, cfg, nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.6, Seed: 93})
	for i := 0; i < 6; i++ {
		old := js.Graph()
		want := old.Edges()
		if err := js.ApplyBatch(gen.Next(old)); err != nil {
			t.Fatal(err)
		}
		got := old.Edges()
		if len(got) != len(want) {
			t.Fatalf("batch %d: the superseded version serves %d edges, had %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("batch %d: edge %d of the superseded version reads %+v, was %+v", i, k, got[k], want[k])
			}
		}
		if err := old.Validate(); err != nil {
			t.Fatalf("batch %d: superseded version: %v", i, err)
		}
		if err := js.Graph().Validate(); err != nil {
			t.Fatalf("batch %d: head: %v", i, err)
		}
		tol := Tolerance(a, js.Graph().NumEdges(), i+1)
		if d := js.Verify(); !(d <= tol) {
			t.Fatalf("batch %d diverged by %v (tol %v)", i, d, tol)
		}
	}
	if ls := js.Graph().LayoutStats(); ls.UndoRebuilt == 0 {
		t.Fatal("no pre-batch adjacency was ever rebuilt: the run read no superseded version")
	}
}

func TestAblationNoCoalesceTruncates(t *testing.T) {
	// Coalescing is not only a performance mechanism for accumulative
	// algorithms — it preserves accuracy at a given epsilon. Un-merged
	// deltas shrink per hop by ~damping/degree and fall under the
	// generation threshold within a few hops, truncating the contribution
	// series; coalesced deltas aggregate and survive ~damping per round.
	// This test pins that behavior: the no-coalescing run terminates,
	// coalesces nothing, and is *less accurate* than the full design while
	// staying boundedly wrong.
	a := algo.NewPageRank(1e-6)
	g := graph.RMAT(graph.RMATConfig{Vertices: 150, Edges: 1200, Seed: 97})

	run := func(noCoalesce bool) (maxRel float64, coalesced uint64) {
		aa := algo.NewPageRank(1e-6)
		cfg := cfgOpt(OptDAP, false)
		cfg.NoCoalesce = noCoalesce
		st := &stats.Counters{}
		js := New(g, aa, cfg, st)
		js.RunInitial()
		gen := stream.NewGenerator(stream.Config{BatchSize: 30, InsertFrac: 0.5, Seed: 99})
		for i := 0; i < 3; i++ {
			if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
				t.Fatal(err)
			}
		}
		ref := algo.Reference(a, js.Graph())
		for i := range ref {
			if ref[i] <= 0 {
				continue
			}
			d := js.State()[i] - ref[i]
			if d < 0 {
				d = -d
			}
			if rel := d / ref[i]; rel > maxRel {
				maxRel = rel
			}
		}
		return maxRel, st.EventsCoalesced
	}

	fullErr, _ := run(false)
	ablErr, coalesced := run(true)
	if coalesced != 0 {
		t.Errorf("%d events coalesced despite NoCoalesce", coalesced)
	}
	if ablErr <= fullErr {
		t.Errorf("no-coalescing error %.4f not worse than full design %.6f", ablErr, fullErr)
	}
	if fullErr > 1e-2 {
		t.Errorf("full design relative error %.4f too large", fullErr)
	}
	if ablErr > 0.8 {
		t.Errorf("no-coalescing error %.4f unboundedly wrong", ablErr)
	}
}

func TestRepartitionKeepsResultsExact(t *testing.T) {
	// §4.7: periodic re-partitioning must not affect the workflow.
	a := algo.NewSSSP(0)
	g := graph.RMAT(graph.RMATConfig{Vertices: 500, Edges: 4000, Seed: 101})
	cfg := cfgOpt(OptDAP, true)
	cfg.Slices = 3
	js := New(g, a, cfg, nil)
	js.RunInitial()
	gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.6, Seed: 103})
	for i := 0; i < 4; i++ {
		if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
			t.Fatal(err)
		}
		if cut := js.Repartition(); cut < 0 {
			t.Fatal("Repartition reported slicing off")
		}
		if d := js.Verify(); d != 0 {
			t.Fatalf("batch %d after repartition: diverged by %v", i, d)
		}
	}
	// Without slicing it is a no-op.
	plain := New(g, a, cfgOpt(OptDAP, false), nil)
	if plain.Repartition() != -1 {
		t.Error("unsliced Repartition should return -1")
	}
}

// functionalCounters is the part of a stats sink that describes the work the
// engine did, as opposed to what a cycle model made of it.
func functionalCounters(st *stats.Counters) [11]uint64 {
	return [11]uint64{st.EventsProcessed, st.EventsGenerated, st.EventsCoalesced,
		st.VertexReads, st.VertexWrites, st.EdgeReads, st.VerticesReset,
		st.RequestsIssued, st.DeletesDiscarded, st.Rounds, st.Phases}
}

// TestTimingDoesNotChangeFunctionalWork pins that the timing recorders — the
// engine's per-batch lists and the setup scans recorded here — are recorders
// only: the same stream with a cycle model attached and without one ends in
// the same state, bit for bit, on every recovery path (Base/VAP/DAP deletes,
// fused and two-phase accumulative). Accumulative kernels also do the same
// functional work, counter for counter. Selective kernels process fewer
// events without a cycle model: requests are answered along the asking edge
// and dominated events are not emitted.
func TestTimingDoesNotChangeFunctionalWork(t *testing.T) {
	cases := []struct {
		name     string
		alg      string
		opt      OptLevel
		twoPhase bool
	}{
		{"sssp/base", "sssp", OptBase, false},
		{"sswp/vap", "sswp", OptVAP, false},
		{"bfs/dap", "bfs", OptDAP, false},
		{"pagerank/fused", "pagerank", OptDAP, false},
		{"adsorption/two-phase", "adsorption", OptDAP, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(timing bool) ([11]uint64, []float64, uint64) {
				a, err := algo.New(c.alg, 0, 1e-7)
				if err != nil {
					t.Fatal(err)
				}
				cfg := cfgOpt(c.opt, timing)
				cfg.TwoPhaseAccumulate = c.twoPhase
				st := &stats.Counters{}
				js := New(graph.RMAT(graph.RMATConfig{Vertices: 300, Edges: 2400, Seed: 53}), a, cfg, st)
				js.RunInitial()
				gen := stream.NewGenerator(stream.Config{BatchSize: 40, InsertFrac: 0.5, Seed: 59})
				for i := 0; i < 3; i++ {
					if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
						t.Fatal(err)
					}
				}
				return functionalCounters(st), append([]float64(nil), js.State()...), js.Cycles()
			}
			onWork, onState, onCycles := run(true)
			offWork, offState, offCycles := run(false)
			if onCycles == 0 || offCycles != 0 {
				t.Fatalf("cycles with timing on %d, off %d: the arms are not what they claim", onCycles, offCycles)
			}
			if a, _ := algo.New(c.alg, 0, 1e-7); a.Class() == algo.Accumulative {
				if onWork != offWork {
					t.Errorf("functional counters differ:\n timing on  %v\n timing off %v", onWork, offWork)
				}
			} else if offWork[0] >= onWork[0] {
				t.Errorf("events processed: %d without a cycle model, %d with one; want fewer", offWork[0], onWork[0])
			}
			for v := range onState {
				if math.Float64bits(onState[v]) != math.Float64bits(offState[v]) {
					t.Fatalf("state of vertex %d: %v with timing, %v without", v, onState[v], offState[v])
				}
			}
		})
	}
}

// TestRequestsAnsweredAlongAskingEdge deletes the edge the chain 1→2→3 hangs
// from, which resets all three (DAP), and counts the request events the batch
// queues. In-degrees in the new graph: 1 ← {4}, 2 ← {1, 5}, 3 ← {2, 6}, so the
// paper's protocol, run under a cycle model, sends 5 requests to 5 distinct
// in-neighbors. Without a cycle model the host answers each along the asking
// edge and queues none; the state and the counted requests are the same.
func TestRequestsAnsweredAlongAskingEdge(t *testing.T) {
	g := graph.MustBuild(7, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
		{Src: 0, Dst: 4, Weight: 1}, {Src: 0, Dst: 5, Weight: 1}, {Src: 0, Dst: 6, Weight: 1},
		{Src: 4, Dst: 1, Weight: 10}, {Src: 5, Dst: 2, Weight: 10}, {Src: 6, Dst: 3, Weight: 10},
	})
	a := algo.NewSSSP(0)
	run := func(timing bool) (requests uint64, st *stats.Counters, state []float64) {
		st = &stats.Counters{}
		js := New(g, a, cfgOpt(OptDAP, timing), st)
		js.RunInitial()
		js.Engine().SetTrace(func(ev event.Event) {
			if ev.IsRequest() {
				requests++
			}
		})
		if err := js.ApplyBatch(graph.Batch{Deletes: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}}); err != nil {
			t.Fatal(err)
		}
		return requests, st, append([]float64(nil), js.State()...)
	}
	onReq, onSt, onState := run(true)
	offReq, offSt, offState := run(false)
	if onReq != 5 || offReq != 0 {
		t.Errorf("request events queued: %d under a cycle model (want 5), %d without (want 0)", onReq, offReq)
	}
	for _, st := range []*stats.Counters{onSt, offSt} {
		if st.VerticesReset != 3 || st.RequestsIssued != 5 {
			t.Errorf("reset %d vertices and issued %d requests; want 3 and 5", st.VerticesReset, st.RequestsIssued)
		}
	}
	if want := []float64{0, 11, 11, 11, 1, 1, 1}; !slices.Equal(onState, want) || !slices.Equal(offState, want) {
		t.Errorf("state %v with a cycle model, %v without; want %v", onState, offState, want)
	}
}

// TestRecoveryPhaseAllocs pins the delete-tag recovery phase of the Base and
// DAP policies at zero allocations once warm: the tags travel along whole
// out-adjacencies (EmitAlongEdges) into reused queue slots and a reused
// Impact Buffer. Each run restores the converged state and deletes the
// root's out-edges again.
func TestRecoveryPhaseAllocs(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 2000, Edges: 16000, Seed: 5})
	a := algo.NewSSSP(0)
	roots, _ := g.OutAdj(0)
	for _, opt := range []OptLevel{OptBase, OptDAP} {
		t.Run(opt.String(), func(t *testing.T) {
			js := New(g, a, cfgOpt(opt, false), nil)
			js.RunInitial()
			state := slices.Clone(js.eng.State())
			dep := slices.Clone(js.eng.Dep())
			h := js.deleteHandler()
			reset := uint64(0)
			phase := func() {
				copy(js.eng.State(), state)
				copy(js.eng.Dep(), dep)
				js.impact = js.impact[:0]
				before := js.st.VerticesReset
				js.setCoalescing(opt != OptDAP)
				for _, dst := range roots {
					js.eng.EmitTo(dst, a.Identity(), 0, event.FlagDelete)
				}
				js.eng.RunPhase(h)
				js.setCoalescing(true)
				reset = js.st.VerticesReset - before
			}
			for i := 0; i < 5; i++ {
				phase()
			}
			if allocs := testing.AllocsPerRun(20, phase); allocs != 0 {
				t.Fatalf("recovery phase resetting %d vertices: %v allocations, want 0", reset, allocs)
			}
			if reset < 100 {
				t.Fatalf("recovery phase reset %d vertices; the test wants a deep cascade", reset)
			}
		})
	}
}

// TestReapproximateAllocs pins the Reapproximate step at zero allocations
// once warm, with a cycle model (request events, charged to the setup trace)
// and without one (answered along the asking edge).
func TestReapproximateAllocs(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 2000, Edges: 16000, Seed: 5})
	a := algo.NewSSSP(0)
	var impact []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 8 {
		impact = append(impact, graph.VertexID(v))
	}
	for _, timing := range []bool{false, true} {
		js := New(g, a, cfgOpt(OptDAP, timing), nil)
		js.RunInitial()
		step := func() {
			js.impact = append(js.impact[:0], impact...)
			js.requestImpacted(js.g)
			js.eng.RunPhase(func(event.Event) {}) // drain what the step queued
		}
		for i := 0; i < 5; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("timing %v: Reapproximate over %d vertices: %v allocations, want 0", timing, len(impact), allocs)
		}
	}
}
