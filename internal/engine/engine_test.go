package engine

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
)

func testConfig(timing bool) Config {
	cfg := DefaultConfig()
	cfg.Timing = timing
	return cfg
}

// tolFor is the acceptable deviation from the reference solver: selective
// kernels converge to the exact fixpoint under any processing order, while
// accumulative kernels carry the epsilon-truncation reordering bound (each
// suppressed sub-epsilon delta moves the sum by at most Epsilon, and the set
// of suppressions depends on processing order — so the parallel default
// deviates by O(Epsilon * edges)).
func tolFor(a algo.Algorithm, g *graph.CSR) float64 {
	if a.Class() == algo.Accumulative {
		if t := a.Epsilon() * 10 * float64(g.NumEdges()); t > 1e-6 {
			return t
		}
	}
	return 1e-6
}

func makeAlg(t *testing.T, name string) algo.Algorithm {
	t.Helper()
	a, err := algo.New(name, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testGraphFor(a algo.Algorithm, seed int64) *graph.CSR {
	g := graph.RMAT(graph.RMATConfig{Vertices: 400, Edges: 3000, Seed: seed})
	if algo.NeedsSymmetric(a) {
		g = graph.Symmetrize(g)
	}
	return g
}

func TestStaticConvergenceMatchesReference(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlg(t, name)
			g := testGraphFor(a, 42)
			e := New(g, a, testConfig(false), nil)
			e.RunToConvergence()
			ref := algo.Reference(a, g)
			if d := algo.MaxAbsDiff(e.State(), ref); d > tolFor(a, g) {
				t.Errorf("%s: max diff vs reference = %v", name, d)
			}
		})
	}
}

func TestStaticConvergenceOnWebGraph(t *testing.T) {
	// The narrow long-path topology exercises deep propagation chains.
	g := graph.WebCrawl(graph.WebCrawlConfig{Vertices: 800, AvgDegree: 5, Seed: 7})
	for _, name := range []string{"sssp", "bfs", "sswp", "pagerank"} {
		a := makeAlg(t, name)
		e := New(g, a, testConfig(false), nil)
		e.RunToConvergence()
		if d := algo.MaxAbsDiff(e.State(), algo.Reference(a, g)); d > tolFor(a, g) {
			t.Errorf("%s: max diff = %v", name, d)
		}
	}
}

func TestConvergenceWithUnreachableVertices(t *testing.T) {
	// Vertices never reached must stay at Identity.
	g := graph.MustBuild(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 2}})
	a := algo.NewSSSP(0)
	e := New(g, a, testConfig(false), nil)
	e.RunToConvergence()
	if e.State()[1] != 2 {
		t.Errorf("state[1]=%v, want 2", e.State()[1])
	}
	if !math.IsInf(e.State()[2], 1) || !math.IsInf(e.State()[3], 1) {
		t.Errorf("unreachable states %v must stay +Inf", e.State()[2:])
	}
}

func TestTimingProducesCycles(t *testing.T) {
	a := makeAlg(t, "sssp")
	g := testGraphFor(a, 1)
	st := &stats.Counters{}
	e := New(g, a, testConfig(true), st)
	e.RunToConvergence()
	if e.Cycles() == 0 {
		t.Fatal("timing enabled but zero cycles")
	}
	if st.BytesTransferred == 0 || st.BytesUsed == 0 {
		t.Fatal("no traffic accounted")
	}
	if st.BytesUsed > st.BytesTransferred {
		t.Errorf("used %d > transferred %d", st.BytesUsed, st.BytesTransferred)
	}
	// Timing must not change results.
	e2 := New(g, a, testConfig(false), nil)
	e2.RunToConvergence()
	if d := algo.MaxAbsDiff(e.State(), e2.State()); d != 0 {
		t.Errorf("timing changed results by %v", d)
	}
}

func TestTimingDeterministic(t *testing.T) {
	a := makeAlg(t, "bfs")
	g := testGraphFor(a, 2)
	run := func() uint64 {
		e := New(g, a, testConfig(true), nil)
		e.RunToConvergence()
		return e.Cycles()
	}
	if run() != run() {
		t.Error("cycle counts differ between identical runs")
	}
}

func TestPartitionedRunMatchesUnpartitioned(t *testing.T) {
	for _, name := range []string{"sssp", "cc", "pagerank"} {
		a := makeAlg(t, name)
		g := testGraphFor(a, 3)
		plain := New(g, a, testConfig(false), nil)
		plain.RunToConvergence()
		st := &stats.Counters{}
		cfgT := testConfig(true)
		sliced := New(g, a, cfgT, st, WithPartition(4))
		sliced.RunToConvergence()
		// Accumulative kernels truncate deltas below epsilon; different
		// coalescing orders truncate different deltas, so two correct runs
		// may differ by up to ~eps*E/(1-damping) ≈ 2e-6 here.
		if d := algo.MaxAbsDiff(plain.State(), sliced.State()); d > 1e-5 {
			t.Errorf("%s: sliced run differs by %v", name, d)
		}
		if st.SpillBytes == 0 {
			t.Errorf("%s: slicing produced no spill traffic", name)
		}
	}
}

func TestDependencyTracking(t *testing.T) {
	// A path graph has an unambiguous dependency tree: each vertex depends
	// on its predecessor.
	g := graph.MustBuild(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 4, Weight: 1},
	})
	e := New(g, algo.NewSSSP(0), testConfig(false), nil, WithDependencyTracking())
	e.RunToConvergence()
	dep := e.Dep()
	if dep == nil {
		t.Fatal("dependency tracking not enabled")
	}
	for v := 1; v < 5; v++ {
		if dep[v] != graph.VertexID(v-1) {
			t.Errorf("dep[%d]=%d, want %d", v, dep[v], v-1)
		}
	}
	// The root was set by the initial event, which has no source.
	if dep[0] != event.NoSource {
		t.Errorf("dep[root]=%d, want NoSource", dep[0])
	}
}

func TestRequestFlagForcesPropagation(t *testing.T) {
	// A converged vertex that receives a request event must re-propagate
	// its state even though it does not change (§3.5).
	g := graph.MustBuild(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 5}, {Src: 1, Dst: 2, Weight: 5}})
	a := algo.NewSSSP(0)
	e := New(g, a, testConfig(false), nil)
	e.RunToConvergence()
	// Corrupt vertex 2 upward (as a delete-reset would) and request from 1.
	e.State()[2] = a.Identity()
	e.Emit(event.Event{Target: 1, Value: a.Identity(), Source: event.NoSource, Flags: event.FlagRequest})
	e.RunPhase(e.ComputeHandler())
	if e.State()[2] != 10 {
		t.Errorf("state[2]=%v after request, want 10", e.State()[2])
	}
}

func TestSetGraphSwapsVersion(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	a := algo.NewSSSP(0)
	e := New(g, a, testConfig(false), nil)
	e.RunToConvergence()
	ng, err := g.Apply(graph.Batch{Inserts: []graph.Edge{{Src: 1, Dst: 2, Weight: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetGraph(ng, nil)
	// Incremental: seed the inserted edge's event by hand.
	e.Emit(event.New(2, e.State()[1]+4))
	e.RunPhase(e.ComputeHandler())
	if e.State()[2] != 5 {
		t.Errorf("state[2]=%v, want 5", e.State()[2])
	}
}

func TestSetGraphPanicsOnResize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on vertex-count change")
		}
	}()
	g := graph.MustBuild(3, nil)
	e := New(g, algo.NewSSSP(0), testConfig(false), nil)
	e.SetGraph(graph.MustBuild(4, nil), nil)
}

func TestMaskedViewStopsPropagation(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	a := algo.NewSSSP(0)
	e := New(g, a, testConfig(false), nil)
	v := graph.NewView(g)
	v.Mask(1)
	e.SetGraph(g, v)
	e.SeedInitialEvents()
	e.RunPhase(e.ComputeHandler())
	if e.State()[1] != 1 {
		t.Errorf("state[1]=%v, want 1", e.State()[1])
	}
	if !math.IsInf(e.State()[2], 1) {
		t.Errorf("state[2]=%v; masked vertex must not propagate", e.State()[2])
	}
}

func TestWorkCountersPopulated(t *testing.T) {
	a := makeAlg(t, "sssp")
	g := testGraphFor(a, 5)
	st := &stats.Counters{}
	e := New(g, a, testConfig(false), st)
	e.RunToConvergence()
	if st.EventsProcessed == 0 || st.EventsGenerated == 0 || st.VertexReads == 0 ||
		st.VertexWrites == 0 || st.EdgeReads == 0 || st.Rounds == 0 || st.Phases != 1 {
		t.Errorf("counters not populated: %+v", st)
	}
	// Every processed event read exactly one vertex.
	if st.VertexReads != st.EventsProcessed {
		t.Errorf("vertex reads %d != events processed %d", st.VertexReads, st.EventsProcessed)
	}
}

// TestWorkCountersIgnoreTiming runs every kernel's static evaluation, and
// then a phase of delete tags emitted along edges, with a cycle model attached
// and without. The recorders the model reads are built only in the first arm,
// and state and dependencies must not notice. The functional counters match
// too, except that without a cycle model a selective compute phase does not
// emit events their targets already dominate: it generates fewer events for
// the same vertex writes and edge reads.
func TestWorkCountersIgnoreTiming(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			run := func(timing bool) (stats.Counters, []float64, []graph.VertexID) {
				a := makeAlg(t, name)
				st := &stats.Counters{}
				e := New(testGraphFor(a, 5), a, testConfig(timing), st, WithDependencyTracking())
				e.RunToConvergence()
				for v := graph.VertexID(0); v < 40; v++ {
					e.Emit(event.Event{Target: v, Value: a.Identity(), Source: event.NoSource, Flags: event.FlagDelete})
				}
				hops := 0
				e.RunPhase(func(ev event.Event) {
					e.ReadVertex(ev.Target)
					if hops++; hops < 500 {
						e.EmitAlongEdges(ev.Target, a.Identity(), event.FlagDelete)
					}
				})
				if (e.Cycles() != 0) != timing {
					t.Fatalf("timing %v accumulated %d cycles", timing, e.Cycles())
				}
				work := *st
				work.BytesTransferred, work.BytesUsed, work.DRAMAccesses, work.RowHits, work.SpillBytes, work.Cycles = 0, 0, 0, 0, 0, 0
				return work, append([]float64(nil), e.State()...), append([]graph.VertexID(nil), e.Dep()...)
			}
			onWork, onState, onDep := run(true)
			offWork, offState, offDep := run(false)
			if makeAlg(t, name).Class() == algo.Accumulative {
				if onWork != offWork {
					t.Errorf("functional counters differ:\n timing on  %+v\n timing off %+v", onWork, offWork)
				}
			} else {
				if onWork.VertexWrites != offWork.VertexWrites || onWork.EdgeReads != offWork.EdgeReads {
					t.Errorf("writes/edge reads differ:\n timing on  %+v\n timing off %+v", onWork, offWork)
				}
				if offWork.EventsGenerated >= onWork.EventsGenerated {
					t.Errorf("events generated: %d without a cycle model, %d with one; want fewer",
						offWork.EventsGenerated, onWork.EventsGenerated)
				}
			}
			if onWork.EdgeReads == 0 || onWork.Phases != 2 {
				t.Errorf("the run did not do the work it was built to do: %+v", onWork)
			}
			for v := range onState {
				if math.Float64bits(onState[v]) != math.Float64bits(offState[v]) {
					t.Fatalf("state of vertex %d: %v with timing, %v without", v, onState[v], offState[v])
				}
			}
			if !slices.Equal(onDep, offDep) {
				t.Error("dependency fields differ with timing on and off")
			}
		})
	}
}

// TestComputeSkipsDominatedEvents counts the events a selective compute phase
// generates on a converged graph, with a cycle model attached and without.
// Without one an unflagged event whose target state already dominates it is
// not emitted; delete- and request-flagged events always are.
func TestComputeSkipsDominatedEvents(t *testing.T) {
	// SSSP from 0 converges to 0, 1, 1, 2.
	g := graph.MustBuild(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 2, Weight: 5}, {Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 5},
	})
	for _, c := range []struct {
		timing               bool
		request, improvement uint64
	}{
		// request: the request event, then 1 re-propagates 6 to 2 and a tie 2 to 3.
		// improvement: 0.25 reaches 1, which sends 5.25 to 2 and 1.25 to 3.
		{timing: true, request: 3, improvement: 3},
		{timing: false, request: 1, improvement: 2},
	} {
		t.Run(map[bool]string{true: "cycle-model", false: "host"}[c.timing], func(t *testing.T) {
			a := algo.NewSSSP(0)
			st := &stats.Counters{}
			e := New(g, a, testConfig(c.timing), st)
			e.RunToConvergence()
			phase := func(ev event.Event, run func()) uint64 {
				gen := st.EventsGenerated
				e.Emit(ev)
				run()
				return st.EventsGenerated - gen
			}
			compute := func() { e.RunPhase(e.ComputeHandler()) }
			if n := phase(event.Event{Target: 1, Value: a.Identity(), Source: event.NoSource, Flags: event.FlagRequest}, compute); n != c.request {
				t.Errorf("request phase generated %d events, want %d", n, c.request)
			}
			if n := phase(event.Event{Target: 1, Value: 0.25, Source: event.NoSource}, compute); n != c.improvement {
				t.Errorf("improving phase generated %d events, want %d", n, c.improvement)
			}
			if want := []float64{0, 0.25, 1, 1.25}; !slices.Equal(e.State(), want) {
				t.Errorf("state %v, want %v", e.State(), want)
			}
			// Both of 1's out-edges carry dominated values; flagged, they go out.
			for _, fl := range []event.Flags{event.FlagDelete, event.FlagRequest} {
				gen := st.EventsGenerated
				e.PropagateValue(1, e.State()[1], fl)
				if n := st.EventsGenerated - gen; n != 2 || e.Queue().Len() != 2 {
					t.Errorf("flags %v: %d events generated, %d queued; want 2 and 2", fl, n, e.Queue().Len())
				}
				e.RunPhase(func(event.Event) {})
			}
		})
	}
}

// TestSliceCapacityShrinksWithEventSize: the event queue holds one slot per
// vertex, so a slice holds QueueBytes / event size vertices, and JetStream's
// bigger events mean fewer vertices per slice than GraphPulse (paper §6.1).
func TestSliceCapacityShrinksWithEventSize(t *testing.T) {
	qb := DefaultConfig().QueueBytes
	gp := qb / event.Size(event.ModeGraphPulse)
	dap := qb / event.Size(event.ModeJetStreamDAP)
	if dap >= gp {
		t.Errorf("DAP capacity %d should be below GraphPulse %d", dap, gp)
	}
}

func TestQuickStaticSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.ErdosRenyi(80, 400, 16, seed)
		a := algo.NewSSSP(0)
		e := New(g, a, testConfig(false), nil)
		e.RunToConvergence()
		return algo.MaxAbsDiff(e.State(), algo.Dijkstra(g, 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStaticPageRankMatchesPower(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.ErdosRenyi(60, 300, 8, seed)
		a := algo.NewPageRank(1e-11)
		e := New(g, a, testConfig(false), nil)
		e.RunToConvergence()
		return algo.MaxAbsDiff(e.State(), algo.PageRankRef(g, 0.15, 1e-13)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
