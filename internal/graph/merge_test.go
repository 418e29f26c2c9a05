package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// mapApply is the batch rules stated independently of the package's ordered
// audit: a delete set, a sorted copy of the inserts and one HasEdge probe per
// update, then a merge of the surviving edges with the inserts. It is the
// oracle Apply, Merge and the delta path are held against.
func mapApply(g *CSR, b Batch) (*CSR, error) {
	type key struct{ u, v VertexID }
	del := make(map[key]bool, len(b.Deletes))
	for _, e := range b.Deletes {
		k := key{e.Src, e.Dst}
		if del[k] {
			return nil, fmt.Errorf("graph: duplicate delete of (%d,%d)", e.Src, e.Dst)
		}
		if _, ok := g.HasEdge(e.Src, e.Dst); !ok {
			return nil, fmt.Errorf("graph: delete of missing edge (%d,%d)", e.Src, e.Dst)
		}
		del[k] = true
	}
	ins := append([]Edge(nil), b.Inserts...)
	sort.Slice(ins, func(i, j int) bool { return edgeLess(ins[i], ins[j]) })
	for i, e := range ins {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			return nil, fmt.Errorf("graph: insert (%d,%d) out of range", e.Src, e.Dst)
		}
		if i > 0 && ins[i-1].Src == e.Src && ins[i-1].Dst == e.Dst {
			return nil, fmt.Errorf("graph: duplicate insert of (%d,%d)", e.Src, e.Dst)
		}
		if _, ok := g.HasEdge(e.Src, e.Dst); ok && !del[key{e.Src, e.Dst}] {
			return nil, fmt.Errorf("graph: insert of existing edge (%d,%d)", e.Src, e.Dst)
		}
	}
	es := make([]Edge, 0, g.NumEdges()+len(ins)-len(b.Deletes))
	i := 0
	for u := 0; u < g.n; u++ {
		src := VertexID(u)
		g.OutEdges(src, func(dst VertexID, w Weight) {
			for i < len(ins) && edgeLess(ins[i], Edge{Src: src, Dst: dst}) {
				es = append(es, ins[i])
				i++
			}
			if !del[key{src, dst}] {
				es = append(es, Edge{src, dst, w})
			}
		})
	}
	es = append(es, ins[i:]...)
	return buildSorted(g.n, es), nil
}

// TestMergeMatchesApply checks the merge builder, and Apply on the raw batch,
// against mapApply, the map-and-sort rebuild, on random valid deltas (weight
// changes included) put in (src, dst) order by Fold — over a dense base and
// over a slacked version several ApplyDelta batches down a mutation chain.
func TestMergeMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		base := ErdosRenyi(40, 160, 9, int64(trial))
		if trial%2 == 1 {
			for k := 0; k < 3; k++ {
				next, err := base.ApplyDelta(randomValidBatch(rng, base, 12))
				if err != nil {
					t.Fatalf("trial %d: delta: %v", trial, err)
				}
				base = next
			}
		}
		raw := randomValidBatch(rng, base, 1+rng.Intn(200))
		net, err := Fold(base, 1, []Batch{raw})
		if err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		want, err := mapApply(base, net)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := Merge(base, net)
		if err != nil {
			t.Fatalf("trial %d: merge of a valid delta: %v", trial, err)
		}
		checkSame(t, trial, got, want)
		applied, err := base.Apply(raw)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		checkSame(t, trial, applied, want)
	}
}

// TestMergeRefusesDeltaThatDoesNotApply: each way a delta can fail to apply
// to the graph, or fail the (src, dst) order the merge relies on, is refused.
func TestMergeRefusesDeltaThatDoesNotApply(t *testing.T) {
	g := validateTestGraph() // 0→1 w1, 1→2 w2, 2→3 w3, 3→4 w4
	for _, tc := range []struct {
		name string
		b    Batch
	}{
		{"delete of a missing edge", Batch{Deletes: []Edge{{1, 3, 1}}}},
		{"delete of a missing edge past the last", Batch{Deletes: []Edge{{7, 0, 1}}}},
		{"insert of an existing edge", Batch{Inserts: []Edge{{2, 3, 5}}}},
		{"inserts out of order", Batch{Inserts: []Edge{{5, 6, 1}, {0, 2, 1}}}},
		{"duplicate insert", Batch{Inserts: []Edge{{5, 6, 1}, {5, 6, 1}}}},
		{"deletes out of order", Batch{Deletes: []Edge{{2, 3, 3}, {0, 1, 1}}}},
		{"insert out of range", Batch{Inserts: []Edge{{1, 99, 1}}}},
	} {
		if _, err := Merge(g, tc.b); err == nil {
			t.Errorf("%s: merge accepted %+v", tc.name, tc.b)
		}
	}
}

// symmetrizeRef is Symmetrize stated with a map: every edge, plus the reverse
// of each edge whose reverse is absent, carrying the forward edge's weight.
func symmetrizeRef(g *CSR) *CSR {
	type key struct{ u, v VertexID }
	set := make(map[key]Weight, 2*g.NumEdges())
	for _, e := range g.Edges() {
		set[key{e.Src, e.Dst}] = e.Weight
	}
	for _, e := range g.Edges() {
		if _, ok := set[key{e.Dst, e.Src}]; !ok {
			set[key{e.Dst, e.Src}] = e.Weight
		}
	}
	es := make([]Edge, 0, len(set))
	for k, w := range set {
		es = append(es, Edge{k.u, k.v, w})
	}
	return MustBuild(g.NumVertices(), es)
}

// TestSymmetrizeMatchesMapReference holds Symmetrize against symmetrizeRef
// bit for bit, weight sums included, on ER and RMAT graphs with self-loops
// and reverse pairs that already exist under a different weight — on dense
// bases and on slacked versions down an ApplyDelta chain.
func TestSymmetrizeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		var g *CSR
		if trial%2 == 0 {
			g = ErdosRenyi(60, 300, 9, int64(trial))
		} else {
			g = RMAT(RMATConfig{Vertices: 128, Edges: 600, Seed: int64(trial)})
		}
		n := VertexID(g.NumVertices())
		var b Batch
		taken := map[[2]VertexID]bool{}
		free := func(u, v VertexID) bool {
			_, ok := g.HasEdge(u, v)
			return !ok && !taken[[2]VertexID{u, v}]
		}
		insert := func(u, v VertexID, w Weight) {
			taken[[2]VertexID{u, v}] = true
			b.Inserts = append(b.Inserts, Edge{u, v, w})
		}
		for k := 0; k < 20; k++ {
			u, v := VertexID(rng.Intn(int(n))), VertexID(rng.Intn(int(n)))
			if k%2 == 0 && free(u, u) {
				insert(u, u, 1+rng.Float64()) // a self-loop is its own reverse
			}
			if u != v && free(u, v) && free(v, u) {
				insert(u, v, 1+rng.Float64()) // a reverse pair under two weights
				insert(v, u, 20+rng.Float64())
			}
		}
		net, err := Fold(g, 1, []Batch{b})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g, err = g.ApplyDelta(net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trial%4 < 2 {
			g = mustApply(t, g, Batch{})
		}
		got, want := Symmetrize(g), symmetrizeRef(g)
		checkSame(t, trial, got, want)
		if !got.Symmetric() {
			t.Fatalf("trial %d: result not symmetric", trial)
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := VertexID(v)
			gi, gw := got.InAdj(id)
			wi, ww := want.InAdj(id)
			if fmt.Sprint(gi, gw) != fmt.Sprint(wi, ww) || got.OutWeightSum(id) != want.OutWeightSum(id) {
				t.Fatalf("trial %d: vertex %d differs from the reference", trial, v)
			}
		}
	}
}
