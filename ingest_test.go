package jetstream

import (
	"errors"
	"math"
	"testing"
	"time"

	"jetstream/internal/graph"
)

func TestStateReturnsIsolatedCopy(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 41})
	sys, _ := New(g, SSSP(0), WithTiming(false))
	sys.RunInitial()

	st := sys.State()
	for i := range st {
		st[i] = -1 // scribble over the returned slice
	}
	if d := sys.Verify(); d != 0 {
		t.Errorf("mutating State()'s return corrupted the engine: diverged by %v", d)
	}
	// StateRef is the documented zero-copy path: it aliases engine memory.
	ref := sys.StateRef()
	again := sys.State()
	for i := range ref {
		if ref[i] != again[i] {
			t.Fatalf("StateRef and State disagree at vertex %d", i)
		}
	}
}

func TestIngestStrictVsRepair(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 42})
	dirty := Batch{Inserts: []Edge{
		absentEdge(g),
		{Src: 0, Dst: 9999, Weight: 1},       // out of range
		{Src: 1, Dst: 2, Weight: math.NaN()}, // poisoned weight
	}}

	strict, _ := New(g, SSSP(0), WithTiming(false))
	strict.RunInitial()
	_, err := strict.ApplyBatch(dirty)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("strict rejection %v is not a *BatchError", err)
	}
	if len(be.Issues) != 2 {
		t.Errorf("got %d issues, want 2: %v", len(be.Issues), be.Issues)
	}
	if n := strict.Graph().NumEdges(); n != g.NumEdges() {
		t.Errorf("rejected batch changed the graph: %d edges, want %d", n, g.NumEdges())
	}

	repair, _ := New(g, SSSP(0), WithTiming(false), WithIngest(Repair))
	repair.RunInitial()
	res, err := repair.ApplyBatch(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 2 {
		t.Errorf("Repaired = %d, want 2", res.Repaired)
	}
	ts := repair.TotalStats()
	if ts.UpdatesDropped != 2 || ts.BatchesRepaired != 1 {
		t.Errorf("counters dropped=%d repaired=%d, want 2 and 1", ts.UpdatesDropped, ts.BatchesRepaired)
	}
	// The one valid insert landed.
	if n := repair.Graph().NumEdges(); n != g.NumEdges()+1 {
		t.Errorf("repaired batch applied %d edges, want %d", n, g.NumEdges()+1)
	}
	if d := repair.Verify(); d != 0 {
		t.Errorf("repaired system diverged by %v", d)
	}
}

func TestWatchdogThroughPublicAPI(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 43})
	sys, err := New(g, SSSP(0), WithTiming(false), WithWatchdog(WatchdogConfig{Every: 2, Sample: 50}))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 30, InsertFrac: 0.6, Seed: 44})

	r1, err := sys.ApplyBatch(gen.Next(sys.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checked {
		t.Error("watchdog ran on batch 1 at Every=2")
	}
	r2, err := sys.ApplyBatch(gen.Next(sys.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Checked {
		t.Fatal("watchdog skipped batch 2 at Every=2")
	}
	// A healthy incremental stream shows zero divergence and no fallback.
	if r2.Divergence != 0 || r2.FellBack {
		t.Errorf("healthy stream: divergence %v, fellBack %v", r2.Divergence, r2.FellBack)
	}
	if sys.TotalStats().ColdStartFallbacks != 0 {
		t.Errorf("healthy stream counted %d fallbacks", sys.TotalStats().ColdStartFallbacks)
	}

	// Sabotage the live state the way silent memory corruption would: the
	// distances shrink, and a monotone min-kernel can never raise a too-small
	// state, so no incremental recovery repairs it. The next check (batch 4)
	// must see the divergence and fall back to a cold-start recompute.
	state := sys.StateRef()
	for i := range state {
		if state[i] > 0 && !math.IsInf(state[i], 0) {
			state[i] *= 0.25
		}
	}
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
		t.Fatal(err)
	}
	r4, err := sys.ApplyBatch(gen.Next(sys.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Checked || !r4.FellBack {
		t.Fatalf("sabotaged state: checked %v, divergence %v, fellBack %v", r4.Checked, r4.Divergence, r4.FellBack)
	}
	if got := sys.TotalStats().ColdStartFallbacks; got != 1 {
		t.Errorf("ColdStartFallbacks = %d, want 1", got)
	}
	if d := sys.Verify(); d != 0 {
		t.Errorf("state still wrong after fallback: %v", d)
	}
}

// TestWatchdogCatchesNaN poisons one vertex with NaN: the next check must
// read it as an infinite divergence and fall back, not skip it as a zero.
func TestWatchdogCatchesNaN(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 43})
	sys, err := New(g, SSSP(0), WithTiming(false), WithWatchdog(WatchdogConfig{Every: 1}))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	// An empty batch sends no event to the poisoned vertex: a selective
	// kernel never settles on a NaN state, which always reads as changed.
	sys.StateRef()[5] = math.NaN()
	res, err := sys.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checked || !math.IsInf(res.Divergence, 1) || !res.FellBack {
		t.Fatalf("Checked=%v Divergence=%v FellBack=%v, want true +Inf true", res.Checked, res.Divergence, res.FellBack)
	}
	if d := sys.Verify(); d != 0 || math.IsNaN(sys.State()[5]) {
		t.Fatalf("after fallback: Verify = %v, state[5] = %v", d, sys.State()[5])
	}
}

// TestNegativeCycleRefused: a graph holding a negative cycle (0→1 w 1,
// 1→2 w −3, 2→1 w 1) never reaches a compute phase, where a selective kernel
// would relax around the cycle forever. BuildGraph refuses the edge list with
// the batch insert's bad-weight rule, and New refuses such a graph made by
// other means (Apply takes any weight). Each path runs under a deadline, so a
// build that lets the graph through fails instead of hanging.
func TestNegativeCycleRefused(t *testing.T) {
	within := func(what string, f func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s", what)
			return nil
		}
	}
	run := func(g *Graph) error {
		sys, err := New(g, SSSP(0), WithTiming(false))
		if err != nil {
			return err
		}
		sys.RunInitial()
		return nil
	}
	wantBadWeight := func(what string, err error) {
		t.Helper()
		var be *BatchError
		if !errors.As(err, &be) || len(be.Issues) != 1 || be.Issues[0].Kind != graph.IssueBadWeight ||
			be.Issues[0].Edge != (Edge{Src: 1, Dst: 2, Weight: -3}) {
			t.Fatalf("%s: err = %v, want a *BatchError for the bad weight of (1,2)", what, err)
		}
	}

	g, err := BuildGraph(3, []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -3}, {Src: 2, Dst: 1, Weight: 1}})
	if err == nil {
		err = within("New + RunInitial on the built cycle", func() error { return run(g) })
	}
	wantBadWeight("BuildGraph", err)

	pos, err := BuildGraph(3, []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := pos.Apply(Batch{Inserts: []Edge{{Src: 1, Dst: 2, Weight: -3}}})
	if err != nil {
		t.Fatal(err)
	}
	wantBadWeight("New", within("New + RunInitial on the applied cycle", func() error { return run(cyc) }))
}
