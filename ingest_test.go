package jetstream

import (
	"errors"
	"math"
	"testing"
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
