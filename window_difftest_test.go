package jetstream

// Oracle-backed differential harness for the infinite-window layer: every
// kernel (the six evaluated ones plus the windowed connected-components
// kernel) is driven through every adversarial stream shape at window TTLs 2
// and 4 and parallelism 1, 2, 8, while a naive oracle replays the identical
// stream — the oracle's graph is rebuilt from scratch as exactly the in-window
// edges, and its state recomputed cold with the conventional reference solver.
// After every batch the windowed system's graph must equal the oracle's graph
// bitwise (same (src,dst) pairs, same weight bits), its Expired count must
// match the oracle's expiry bookkeeping, and its state must match the cold
// recompute: bitwise for the selective kernels, within the epsilon-truncation
// bound for the accumulative ones.

import (
	"fmt"
	"sort"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/core"
	"jetstream/internal/stream"
)

// windowOracle is the from-scratch rebuild oracle: a map from edge to its
// insertion epoch and weight, advanced batch by batch with the plain window
// semantics (user deletes win, then everything at or below k-ttl falls out,
// then the batch's inserts arrive at epoch k).
type windowOracle struct {
	ttl  int
	age  map[[2]uint32]uint64
	wt   map[[2]uint32]float64
	n    int
	sym  bool
	last uint64 // expired-edge count of the most recent step
}

func newWindowOracle(g *Graph, ttl int) *windowOracle {
	o := &windowOracle{
		ttl: ttl,
		age: make(map[[2]uint32]uint64),
		wt:  make(map[[2]uint32]float64),
		n:   g.NumVertices(),
		sym: g.Symmetric(),
	}
	for _, e := range g.Edges() {
		k := [2]uint32{e.Src, e.Dst}
		o.age[k] = 0
		o.wt[k] = e.Weight
	}
	return o
}

// step advances the oracle through batch number k (1-based).
func (o *windowOracle) step(k uint64, b Batch) {
	for _, e := range b.Deletes {
		key := [2]uint32{e.Src, e.Dst}
		delete(o.age, key)
		delete(o.wt, key)
	}
	var expired uint64
	for key, epoch := range o.age {
		if epoch+uint64(o.ttl) <= k {
			delete(o.age, key)
			delete(o.wt, key)
			expired++
		}
	}
	o.last = expired
	for _, e := range b.Inserts {
		key := [2]uint32{e.Src, e.Dst}
		o.age[key] = k
		o.wt[key] = e.Weight
	}
}

// graph materializes the oracle's edge set as a cold-built CSR.
func (o *windowOracle) graph(t *testing.T) *Graph {
	t.Helper()
	edges := make([]Edge, 0, len(o.age))
	for key := range o.age {
		edges = append(edges, Edge{Src: key[0], Dst: key[1], Weight: o.wt[key]})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	g, err := BuildGraph(o.n, edges)
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	return g
}

// sameEdges compares two graphs' edge sets bitwise.
func sameEdges(a, b *Graph) string {
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return fmt.Sprintf("edge count %d vs oracle %d", len(ae), len(be))
	}
	key := func(e Edge) [2]uint32 { return [2]uint32{e.Src, e.Dst} }
	sort.Slice(ae, func(i, j int) bool {
		ki, kj := key(ae[i]), key(ae[j])
		return ki[0] < kj[0] || (ki[0] == kj[0] && ki[1] < kj[1])
	})
	sort.Slice(be, func(i, j int) bool {
		ki, kj := key(be[i]), key(be[j])
		return ki[0] < kj[0] || (ki[0] == kj[0] && ki[1] < kj[1])
	})
	for i := range ae {
		if ae[i] != be[i] {
			return fmt.Sprintf("edge %d: (%d,%d,%v) vs oracle (%d,%d,%v)",
				i, ae[i].Src, ae[i].Dst, ae[i].Weight, be[i].Src, be[i].Dst, be[i].Weight)
		}
	}
	return ""
}

// windowedKernels is every kernel under the window harness: the six evaluated
// ones plus the windowed connected-components kernel.
func windowedKernels() []string { return append(algo.Names(), "wcc") }

// recordWindowedStream draws an adversarial stream against a throwaway
// windowed system so every batch is valid for the (expiry-including) graph
// version it will meet during replay.
func recordWindowedStream(t *testing.T, name string, kind stream.ShapeKind, ttl int, batches, batchSize int, seed int64) (*Graph, []Batch) {
	t.Helper()
	a := makeAlgByName(t, name)
	sym := algo.NeedsSymmetric(a)
	g := RMAT(RMATConfig{Vertices: 220, Edges: 1600, Seed: seed})
	if sym {
		g = Symmetrize(g)
	}
	gen := stream.NewShape(stream.ShapeConfig{
		Kind: kind, BatchSize: batchSize, MaxWeight: 8, Symmetric: sym, Period: ttl, Seed: seed + 1,
	})
	sys, err := New(g, a, WithTiming(false), WithParallelism(1), WithWindow(ttl))
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

// TestWindowedDifferential is the headline suite. Subtest names follow
// kernel/shape/ttl/parallelism so CI can shard by kernel and shape.
func TestWindowedDifferential(t *testing.T) {
	for _, name := range windowedKernels() {
		t.Run(name, func(t *testing.T) {
			for _, kind := range stream.Shapes() {
				t.Run(kind.String(), func(t *testing.T) {
					for _, ttl := range []int{2, 4} {
						t.Run(fmt.Sprintf("ttl%d", ttl), func(t *testing.T) {
							base, batches := recordWindowedStream(t, name, kind, ttl, 7, 24, int64(101+ttl))
							for _, p := range difftestParallelisms {
								t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
									eachFanoutArm(t, p, func(t *testing.T) *System {
										return runWindowedDifferential(t, name, base, batches, ttl, p)
									})
								})
							}
						})
					}
				})
			}
		})
	}
}

func runWindowedDifferential(t *testing.T, name string, base *Graph, batches []Batch, ttl, p int) *System {
	a := makeAlgByName(t, name)
	sys, err := New(base, a, WithTiming(false), WithParallelism(p), WithWindow(ttl))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	oracle := newWindowOracle(base, ttl)
	exact := a.Class() == algo.Selective
	// For the accumulative bound, the epsilon-truncation error scales with the
	// updates that ever propagated, not the current (window-shrunken) edge
	// count — an avalanche can expire most of the graph after the error has
	// already accumulated on the full one.
	touched := base.NumEdges()
	for i, b := range batches {
		res, err := sys.ApplyBatch(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		oracle.step(uint64(i+1), b)
		if res.Expired != oracle.last {
			t.Fatalf("batch %d: system expired %d edges, oracle %d", i, res.Expired, oracle.last)
		}
		og := oracle.graph(t)
		if diff := sameEdges(sys.Graph(), og); diff != "" {
			t.Fatalf("batch %d: graph diverged from in-window oracle: %s", i, diff)
		}
		// State: recompute cold on the oracle graph.
		ref := algo.Reference(a, og)
		d := algo.MaxAbsDiff(sys.StateRef(), ref)
		if exact {
			if d != 0 {
				t.Fatalf("batch %d: selective state deviates from rebuild oracle by %v (want bitwise equal)", i, d)
			}
			continue
		}
		touched += b.Size() + int(res.Expired)
		tol := core.Tolerance(sys.alg, touched, i+2)
		if d > tol {
			t.Fatalf("batch %d: accumulative state deviates by %v > tolerance %v", i, d, tol)
		}
	}
	return sys
}

// TestWindowExpiresInitialGraph pins the epoch-0 rule: with TTL t and no
// user deletes, the entire initial graph ages out exactly at batch t.
func TestWindowExpiresInitialGraph(t *testing.T) {
	g := MustSymmetricTestGraph(t)
	sys, err := New(g, SSSP(0), WithTiming(false), WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	initial := uint64(g.NumEdges())
	for k := 1; k <= 3; k++ {
		res, err := sys.ApplyBatch(Batch{})
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if k < 3 && res.Expired != 0 {
			t.Fatalf("batch %d: %d edges expired before the window boundary", k, res.Expired)
		}
		if k == 3 && res.Expired != initial {
			t.Fatalf("batch 3: expired %d, want the whole initial graph (%d)", res.Expired, initial)
		}
	}
	if got := sys.Graph().NumEdges(); got != 0 {
		t.Fatalf("%d edges survive past their TTL", got)
	}
}

// MustSymmetricTestGraph builds a small symmetric graph for window unit tests.
func MustSymmetricTestGraph(t *testing.T) *Graph {
	t.Helper()
	return Symmetrize(RMAT(RMATConfig{Vertices: 60, Edges: 240, Seed: 5}))
}

// TestWindowWeightRefreshKeepsEdgeAlive pins the weight-change idiom: a
// same-batch delete+insert of one pair restamps its age, so it outlives the
// cohort it originally arrived with.
func TestWindowWeightRefreshKeepsEdgeAlive(t *testing.T) {
	g, err := BuildGraph(4, []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(g, SSSP(0), WithTiming(false), WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	// Batch 1 refreshes (0,1) via delete+insert; (1,2) keeps its epoch 0.
	if _, err := sys.ApplyBatch(Batch{
		Deletes: []Edge{{Src: 0, Dst: 1, Weight: 1}},
		Inserts: []Edge{{Src: 0, Dst: 1, Weight: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	// Batch 2: epoch 0 ages out — only (1,2) expires.
	res, err := sys.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 1 {
		t.Fatalf("batch 2 expired %d edges, want 1 (only the unrefreshed pair)", res.Expired)
	}
	if _, ok := sys.Graph().HasEdge(0, 1); !ok {
		t.Fatal("refreshed edge (0,1) expired with its original cohort")
	}
	// Batch 3: the refreshed pair's new epoch (1) ages out.
	res, err = sys.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 1 {
		t.Fatalf("batch 3 expired %d edges, want 1", res.Expired)
	}
	if sys.Graph().NumEdges() != 0 {
		t.Fatalf("%d edges remain", sys.Graph().NumEdges())
	}
}

// TestWindowRejectsBadTTL: WithWindow(0)/negative is a config error.
func TestWindowRejectsBadTTL(t *testing.T) {
	g := MustSymmetricTestGraph(t)
	for _, ttl := range []int{-1, -7} {
		if _, err := New(g, SSSP(0), WithWindow(ttl)); err == nil {
			t.Fatalf("WithWindow(%d) accepted", ttl)
		}
	}
}

// TestWCCSplitsOnExpiry is the kernel-level story: a bridge edge ages out and
// the component falls apart — the behavior an incremental min-label CC cannot
// express without the deletion-recovery machinery.
func TestWCCSplitsOnExpiry(t *testing.T) {
	// Two triangles joined by a bridge (2-3); symmetric.
	edges := []Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1}, {Src: 3, Dst: 5, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
	}
	var sym []Edge
	for _, e := range edges {
		sym = append(sym, e, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	g, err := BuildGraph(6, sym)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(g, WCC(), WithTiming(false), WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	for _, v := range []int{3, 4, 5} {
		if sys.StateRef()[v] != 0 {
			t.Fatalf("vertex %d labeled %v before expiry, want 0 (one component)", v, sys.StateRef()[v])
		}
	}
	// Batch 1: refresh every edge except the bridge, so only the bridge (and
	// nothing else) carries epoch 0 into batch 2.
	var refresh Batch
	for _, e := range sym {
		if (e.Src == 2 && e.Dst == 3) || (e.Src == 3 && e.Dst == 2) {
			continue
		}
		refresh.Deletes = append(refresh.Deletes, e)
		refresh.Inserts = append(refresh.Inserts, e)
	}
	if _, err := sys.ApplyBatch(refresh); err != nil {
		t.Fatal(err)
	}
	// Batch 2: the bridge expires; the triangles must split into components
	// labeled 0 and 3 — exactly what the union-find rebuild oracle says.
	res, err := sys.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 2 { // both directions of the bridge
		t.Fatalf("expired %d edges, want 2 (the bridge, both directions)", res.Expired)
	}
	ref := algo.Reference(makeAlgByName(t, "wcc"), sys.Graph())
	if d := algo.MaxAbsDiff(sys.StateRef(), ref); d != 0 {
		t.Fatalf("post-split state deviates from union-find oracle by %v", d)
	}
	for _, v := range []int{3, 4, 5} {
		if sys.StateRef()[v] != 3 {
			t.Fatalf("vertex %d labeled %v after the bridge expired, want 3", v, sys.StateRef()[v])
		}
	}
}
