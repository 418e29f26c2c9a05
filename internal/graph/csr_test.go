package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func exampleEdges() []Edge {
	// The paper's Fig 2 example graph (weights from the figure).
	return []Edge{
		{0, 1, 7}, {0, 2, 3}, // A->B, A->C
		{1, 3, 5},            // B->D
		{2, 3, 8}, {2, 4, 2}, // C->D, C->E
		{3, 4, 6}, // D->E
		{4, 1, 7}, // E->B
	}
}

func TestBuildBasic(t *testing.T) {
	g, err := Build(5, exampleEdges())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 7 {
		t.Fatalf("got V=%d E=%d, want 5/7", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.OutDegree(2); d != 2 {
		t.Errorf("OutDegree(2)=%d, want 2", d)
	}
	if d := g.InDegree(3); d != 2 {
		t.Errorf("InDegree(3)=%d, want 2", d)
	}
	if d := g.InDegree(0); d != 0 {
		t.Errorf("InDegree(0)=%d, want 0", d)
	}
	w, ok := g.HasEdge(0, 2)
	if !ok || w != 3 {
		t.Errorf("HasEdge(0,2)=(%v,%v), want (3,true)", w, ok)
	}
	if _, ok := g.HasEdge(2, 0); ok {
		t.Error("HasEdge(2,0) should be false")
	}
	if s := g.OutWeightSum(0); s != 10 {
		t.Errorf("OutWeightSum(0)=%v, want 10", s)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := Build(3, []Edge{{0, 1, 1}, {0, 1, 2}}); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestInOutMirror(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	// Every out edge of u must be visible as an in edge at its destination.
	for _, e := range g.Edges() {
		found := false
		g.InEdges(e.Dst, func(src VertexID, w Weight) {
			if src == e.Src && w == e.Weight {
				found = true
			}
		})
		if !found {
			t.Errorf("edge (%d,%d) missing from in index", e.Src, e.Dst)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	g2 := MustBuild(5, g.Edges())
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed edge count")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatch(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	ng, err := g.Apply(Batch{
		Inserts: []Edge{{0, 3, 9}},
		Deletes: []Edge{{0, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ng.HasEdge(0, 2); ok {
		t.Error("deleted edge still present")
	}
	if w, ok := ng.HasEdge(0, 3); !ok || w != 9 {
		t.Errorf("inserted edge missing: (%v,%v)", w, ok)
	}
	// Original is unchanged.
	if _, ok := g.HasEdge(0, 2); !ok {
		t.Error("Apply mutated the receiver")
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed: %d -> %d", g.NumEdges(), ng.NumEdges())
	}
}

func TestApplyWeightChange(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	// Weight modification = delete + insert of the same pair (§2.1).
	ng, err := g.Apply(Batch{
		Deletes: []Edge{{0, 2, 3}},
		Inserts: []Edge{{0, 2, 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := ng.HasEdge(0, 2); w != 42 {
		t.Errorf("weight change not applied: %v", w)
	}
}

func TestApplyErrors(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	if _, err := g.Apply(Batch{Deletes: []Edge{{4, 0, 1}}}); err == nil {
		t.Error("delete of missing edge accepted")
	}
	if _, err := g.Apply(Batch{Inserts: []Edge{{0, 1, 1}}}); err == nil {
		t.Error("insert of existing edge accepted")
	}
	if _, err := g.Apply(Batch{Deletes: []Edge{{0, 1, 7}, {0, 1, 7}}}); err == nil {
		t.Error("duplicate delete accepted")
	}
	if _, err := g.Apply(Batch{Inserts: []Edge{{0, 4, 1}, {0, 4, 2}}}); err == nil {
		t.Error("duplicate insert accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	g := MustBuild(3, []Edge{{0, 1, 5}, {1, 2, 7}})
	s := Symmetrize(g)
	if s.NumEdges() != 4 {
		t.Fatalf("got %d edges, want 4", s.NumEdges())
	}
	if w, ok := s.HasEdge(1, 0); !ok || w != 5 {
		t.Errorf("reverse edge (1,0) = (%v,%v)", w, ok)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Symmetrizing twice is a fixed point.
	s2 := Symmetrize(s)
	if s2.NumEdges() != s.NumEdges() {
		t.Error("Symmetrize is not idempotent")
	}
}

func TestView(t *testing.T) {
	g := MustBuild(5, exampleEdges())
	v := NewView(g)
	v.Mask(2)
	count := 0
	v.OutEdges(2, func(VertexID, Weight) { count++ })
	if count != 0 {
		t.Errorf("masked vertex propagated %d edges", count)
	}
	if v.OutDegree(2) != 0 {
		t.Error("masked vertex has nonzero OutDegree")
	}
	v.OutEdges(0, func(VertexID, Weight) { count++ })
	if count != 2 {
		t.Errorf("unmasked vertex yielded %d edges, want 2", count)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *CSR
	}{
		{"rmat", RMAT(RMATConfig{Vertices: 1000, Edges: 8000, Seed: 1})},
		{"webcrawl", WebCrawl(WebCrawlConfig{Vertices: 1000, AvgDegree: 6, Seed: 2})},
		{"grid", Grid(GridConfig{Rows: 20, Cols: 20, Diagonal: 0.2, Seed: 3})},
		{"er", ErdosRenyi(500, 3000, 32, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if c.g.NumEdges() == 0 {
				t.Fatal("generator produced no edges")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMAT(RMATConfig{Vertices: 500, Edges: 4000, Seed: 7})
	b := RMAT(RMATConfig{Vertices: 500, Edges: 4000, Seed: 7})
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestWebCrawlHasLongPaths(t *testing.T) {
	// The WK/UK stand-ins must have materially larger diameters than the
	// social stand-ins — the paper's narrow/long vs wide/short split.
	web := WebCrawl(WebCrawlConfig{Vertices: 2000, AvgDegree: 6, Seed: 1})
	soc := RMAT(RMATConfig{Vertices: 2000, Edges: 12000, Seed: 1})
	if bfsDepth(web, 0) <= bfsDepth(soc, 0)*3 {
		t.Errorf("web depth %d not much larger than social depth %d",
			bfsDepth(web, 0), bfsDepth(soc, 0))
	}
}

func bfsDepth(g *CSR, root VertexID) int {
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	q := []VertexID{root}
	max := 0
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		g.OutEdges(u, func(v VertexID, _ Weight) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				if dist[v] > max {
					max = dist[v]
				}
				q = append(q, v)
			}
		})
	}
	return max
}

func TestDatasets(t *testing.T) {
	for _, d := range Datasets() {
		if _, err := DatasetByName(d.Name); err != nil {
			t.Errorf("DatasetByName(%q): %v", d.Name, err)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1500, Seed: 9})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip: got V=%d E=%d, want V=%d E=%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	ea, eb := g.Edges(), g2.Edges()
	for i := range ea {
		if ea[i].Src != eb[i].Src || ea[i].Dst != eb[i].Dst {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	bad := []string{
		"1\n",
		"a b\n",
		"1 b\n",
		"1 2 x\n",
		"1 2 NaN\n", // Build's weight rule refuses these three
		"1 2 -Inf\n",
		"1 2 0\n",
	}
	for _, s := range bad {
		if _, err := ReadEdgeList(strings.NewReader(s), 0); err == nil {
			t.Errorf("input %q accepted", s)
		}
	}
	// Comments and blanks are fine.
	g, err := ReadEdgeList(strings.NewReader("# header\n\n0 1\n1 2 3.5\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if w, _ := g.HasEdge(0, 1); w != 1 {
		t.Errorf("default weight = %v, want 1", w)
	}
}

func TestPartition(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 4000, Edges: 30000, Seed: 11})
	for _, k := range []int{1, 2, 4, 8} {
		p := PartitionGraph(g, k)
		size := make(map[int]int)
		for v := 0; v < g.NumVertices(); v++ {
			s := p.SliceOf(VertexID(v))
			if s < 0 || s >= k {
				t.Fatalf("k=%d vertex %d in slice %d", k, v, s)
			}
			size[s]++
		}
		if len(size) != k {
			t.Errorf("k=%d: only %d slices used", k, len(size))
		}
		// Balance: the largest slice over the ideal size.
		for s, n := range size {
			if b := float64(n) * float64(k) / float64(g.NumVertices()); b > 1.35 {
				t.Errorf("k=%d slice %d balance %.2f too skewed", k, s, b)
			}
		}
	}
}

func TestPartitionCutBeatsRandom(t *testing.T) {
	g := Grid(GridConfig{Rows: 40, Cols: 40, Seed: 5})
	p := PartitionGraph(g, 4)
	// Random assignment cuts ~3/4 of edges on average; BFS growth must do
	// considerably better on a lattice.
	randCut := 0
	rng := rand.New(rand.NewSource(1))
	assign := make([]int, g.NumVertices())
	for i := range assign {
		assign[i] = rng.Intn(4)
	}
	for _, e := range g.Edges() {
		if assign[e.Src] != assign[e.Dst] {
			randCut++
		}
	}
	if p.Cut*2 >= randCut {
		t.Errorf("greedy cut %d not clearly better than random cut %d", p.Cut, randCut)
	}
}

func TestQuickApplyPreservesInvariants(t *testing.T) {
	// Property: applying a random valid batch always yields a valid CSR with
	// the expected edge membership.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(60, 240, 16, seed)
		edges := g.Edges()
		if len(edges) == 0 {
			return true
		}
		// Pick distinct deletions.
		delN := rng.Intn(len(edges)/2 + 1)
		perm := rng.Perm(len(edges))
		var b Batch
		deleted := make(map[[2]VertexID]bool)
		for _, i := range perm[:delN] {
			b.Deletes = append(b.Deletes, edges[i])
			deleted[[2]VertexID{edges[i].Src, edges[i].Dst}] = true
		}
		// Pick insertions that don't collide with surviving edges.
		for tries := 0; tries < 50 && len(b.Inserts) < 20; tries++ {
			u := VertexID(rng.Intn(60))
			v := VertexID(rng.Intn(60))
			if u == v {
				continue
			}
			if _, ok := g.HasEdge(u, v); ok && !deleted[[2]VertexID{u, v}] {
				continue
			}
			dup := false
			for _, e := range b.Inserts {
				if e.Src == u && e.Dst == v {
					dup = true
				}
			}
			if !dup {
				b.Inserts = append(b.Inserts, Edge{u, v, 1 + rng.Float64()*9})
			}
		}
		ng, err := g.Apply(b)
		if err != nil {
			return false
		}
		if err := ng.Validate(); err != nil {
			return false
		}
		for _, e := range b.Deletes {
			reinserted := false
			for _, ie := range b.Inserts {
				if ie.Src == e.Src && ie.Dst == e.Dst {
					reinserted = true
				}
			}
			if _, ok := ng.HasEdge(e.Src, e.Dst); ok && !reinserted {
				return false
			}
		}
		for _, e := range b.Inserts {
			if _, ok := ng.HasEdge(e.Src, e.Dst); !ok {
				return false
			}
		}
		return ng.NumEdges() == g.NumEdges()-len(b.Deletes)+len(b.Inserts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
