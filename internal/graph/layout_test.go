package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the physical side of the delta mutation layer: what a re-lay
// produces, that relocation and re-lays never disturb a version somebody
// still holds, and that reading a live head allocates nothing.

// relayOf forces b through the re-lay path whatever g's waste and tail say.
func relayOf(t *testing.T, g *CSR, b Batch, cfg DeltaConfig) *CSR {
	t.Helper()
	sc := &deltaScratch{}
	sc.order(b)
	if g.audit(sc, false) > 0 {
		t.Fatal(sc.rejection(b))
	}
	sc.mirror()
	return g.relay(cfg, sc)
}

// checkFreshLayout requires ng to be, field for field, the slacked layout of
// the dense graph want under cfg: segment v starts where the segments before
// it end, holds deg+gap(deg) slots with its edges in the first deg, nothing
// is dead, the tail begins behind the last segment, and the cached
// aggregates carry over bit for bit. This is what the parent's slackify(Apply(b)) produced (the oracle
// was checked against that routine before it was deleted), plus the tail.
func checkFreshLayout(t *testing.T, ng, want *CSR, cfg DeltaConfig) {
	t.Helper()
	gap := func(deg int) int { return max(int(float64(deg)*cfg.SlackFrac), cfg.SlackMin) }
	if ng.n != want.n || ng.m != want.m || ng.asymCount != want.asymCount {
		t.Fatalf("aggregates: n %d/%d m %d/%d asym %d/%d",
			ng.n, want.n, ng.m, want.m, ng.asymCount, want.asymCount)
	}
	for v := range want.outWeightSum {
		if math.Float64bits(ng.outWeightSum[v]) != math.Float64bits(want.outWeightSum[v]) {
			t.Fatalf("outWeightSum[%d] = %v, want %v bit for bit", v, ng.outWeightSum[v], want.outWeightSum[v])
		}
	}
	for dir, p := range map[string][2]*adj{"out": {&ng.out, &want.out}, "in": {&ng.in, &want.in}} {
		a, d := p[0], p[1]
		start := uint64(0)
		for v := 0; v < want.n; v++ {
			ids, ws := d.ids[d.ptr[v]:d.ptr[v+1]], d.ws[d.ptr[v]:d.ptr[v+1]]
			deg := len(ids)
			if a.ptr[v] != start || int(a.cap[v]) != deg+gap(deg) {
				t.Fatalf("%s %d: segment [%d,+%d), want [%d,+%d)", dir, v, a.ptr[v], a.cap[v], start, deg+gap(deg))
			}
			if int(a.len[v]) != deg {
				t.Fatalf("%s %d: used %d, want %d", dir, v, a.len[v], deg)
			}
			gotIDs, gotWs := a.ids[start:start+uint64(deg)], a.ws[start:start+uint64(deg)]
			for i := range ids {
				if gotIDs[i] != ids[i] || math.Float64bits(gotWs[i]) != math.Float64bits(ws[i]) {
					t.Fatalf("%s %d: slab slot %d holds (%d,%v), want (%d,%v)", dir, v, i, gotIDs[i], gotWs[i], ids[i], ws[i])
				}
			}
			start += uint64(a.cap[v])
		}
		if a.ptr[want.n] != start || a.tail != start || a.dead != 0 ||
			len(a.ids) != int(start)+gap(int(start)) || len(a.ws) != len(a.ids) {
			t.Fatalf("%s: packed end %d tail %d dead %d slab %d, want %d %d 0 %d",
				dir, a.ptr[want.n], a.tail, a.dead, len(a.ids), start, start, int(start)+gap(int(start)))
		}
	}
}

// TestRelayMatchesFreshLayout pins the one layout routine: re-laying any
// receiver — a dense build, a live slacked head carrying relocations and dead
// slots, a superseded version — with any batch yields exactly the fresh
// layout of Apply(b), the rebuild oracle.
func TestRelayMatchesFreshLayout(t *testing.T) {
	cfgs := map[string]DeltaConfig{
		"default":     DefaultDeltaConfig(),
		"slab_only":   {SlackMin: 4, SlackFrac: 0.125, CompactFrac: 0.25},
		"min1_frac30": {SlackMin: 1, SlackFrac: 0.3, CompactFrac: 100},
		"no_slack":    {CompactFrac: 1},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				dense := RMAT(RMATConfig{Vertices: 200, Edges: 1000 + 200*int(seed), Seed: 30 + seed})
				// A live head that has been edited in place, and the version
				// it superseded last.
				live := relayOf(t, dense, Batch{}, cfg)
				var frozen *CSR
				for step := 0; step < 4; step++ {
					ng, err := live.ApplyDeltaCfg(randomValidBatch(rng, live, 30), cfg)
					if err != nil {
						t.Fatal(err)
					}
					frozen, live = live, ng
				}
				for rname, g := range map[string]*CSR{"dense": dense, "live": live, "frozen": frozen} {
					for _, size := range []int{0, 1, 50} {
						b := randomValidBatch(rng, g, size)
						want := g.MustApply(b)
						ng := relayOf(t, g, b, cfg)
						if err := ng.Validate(); err != nil {
							t.Fatalf("seed %d %s batch %d: %v", seed, rname, size, err)
						}
						checkFreshLayout(t, ng, want, cfg)
					}
				}
			}
		})
	}
}

// versionPin is everything a held version must keep answering.
type versionPin struct {
	g         *CSR
	edges     []Edge
	inIDs     [][]VertexID
	inWs      [][]Weight
	sums      []float64
	symmetric bool
}

func pinVersion(g *CSR) versionPin {
	p := versionPin{g: g, edges: g.Edges(), symmetric: g.Symmetric()}
	for v := 0; v < g.NumVertices(); v++ {
		p.sums = append(p.sums, g.OutWeightSum(VertexID(v)))
		ids, ws := g.InAdj(VertexID(v))
		p.inIDs = append(p.inIDs, append([]VertexID(nil), ids...))
		p.inWs = append(p.inWs, append([]Weight(nil), ws...))
	}
	return p
}

// checkAdjSlices holds the slice adjacency of every vertex of g — what the
// engines iterate — against the callback enumeration and the degree, in both
// directions.
func checkAdjSlices(t *testing.T, name string, g *CSR) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		u := VertexID(v)
		for _, dir := range []struct {
			name  string
			adj   func(VertexID) ([]VertexID, []Weight)
			each  func(VertexID, func(VertexID, Weight))
			count func(VertexID) int
		}{{"out", g.OutAdj, g.OutEdges, g.OutDegree}, {"in", g.InAdj, g.InEdges, g.InDegree}} {
			ids, ws := dir.adj(u)
			if len(ids) != len(ws) || len(ids) != dir.count(u) {
				t.Fatalf("%s: %s-adjacency of %d has %d ids, %d weights, degree %d", name, dir.name, v, len(ids), len(ws), dir.count(u))
			}
			i := 0
			dir.each(u, func(x VertexID, w Weight) {
				if i >= len(ids) || ids[i] != x || math.Float64bits(ws[i]) != math.Float64bits(w) {
					t.Fatalf("%s: %s-edge %d of %d enumerates as (%d, %v), the slices disagree", name, dir.name, i, v, x, w)
				}
				i++
			})
			if i != len(ids) {
				t.Fatalf("%s: %s-adjacency of %d lists %d, enumeration yields %d", name, dir.name, v, len(ids), i)
			}
		}
	}
}

func (p versionPin) check(t *testing.T, name string) {
	t.Helper()
	if !edgesEqual(p.g.Edges(), p.edges) {
		t.Fatalf("%s no longer serves its edge list", name)
	}
	for i, e := range p.edges {
		if got := p.g.EdgeAt(i); got != e {
			t.Fatalf("%s: EdgeAt(%d) = %+v, want %+v", name, i, got, e)
		}
	}
	for v, want := range p.sums {
		if got := p.g.OutWeightSum(VertexID(v)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: OutWeightSum(%d) = %v, want %v", name, v, got, want)
		}
	}
	// The slice adjacency a frozen version hands the engines is the one it
	// had when it was live, per vertex and in both directions.
	checkAdjSlices(t, name, p.g)
	k := 0
	for v := 0; v < p.g.NumVertices(); v++ {
		ids, ws := p.g.OutAdj(VertexID(v))
		for i, dst := range ids {
			if want := (Edge{VertexID(v), dst, ws[i]}); k >= len(p.edges) || p.edges[k] != want {
				t.Fatalf("%s: OutAdj(%d)[%d] = %+v, not the pinned edge %d", name, v, i, want, k)
			}
			k++
		}
		ids, ws = p.g.InAdj(VertexID(v))
		if len(ids) != len(p.inIDs[v]) {
			t.Fatalf("%s: InAdj(%d) has %d sources, pinned %d", name, v, len(ids), len(p.inIDs[v]))
		}
		for i, src := range ids {
			if src != p.inIDs[v][i] || ws[i] != p.inWs[v][i] {
				t.Fatalf("%s: InAdj(%d)[%d] = (%d, %v), pinned (%d, %v)", name, v, i, src, ws[i], p.inIDs[v][i], p.inWs[v][i])
			}
		}
	}
	if k != len(p.edges) {
		t.Fatalf("%s: out-adjacencies hold %d edges, pinned %d", name, k, len(p.edges))
	}
	if p.g.Symmetric() != p.symmetric {
		t.Fatalf("%s: Symmetric() flipped to %v", name, p.g.Symmetric())
	}
	if err := p.g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestPinnedVersionsSurviveLayoutWork holds every version of a chain of
// eleven batches that, in turn, relocate a vertex into the tail, grow and
// shrink two vertices inside their segments, change a weight through a
// delete+insert pair beside plain edits of the same segment, fill a segment
// to its capacity, re-lay the whole graph, and then move the head six more
// batches on, the last of which re-lays again when relocated low-degree
// vertices have used up the tail. Nobody reads a superseded version until the
// end, so g0…g5 are read for the first time when the head is at least five
// batches past them and every pre-batch adjacency has to be rebuilt through
// the chain — oldest version first in one run, newest first in the other. Every version must
// answer every per-vertex reader (OutAdj, InAdj, degrees, OutWeightSum,
// HasEdge, EdgeAt) exactly like the reference chain built with Apply, and
// like itself when it was the live head; the test fails if a batch did not do
// the layout work it was built to do.
func TestPinnedVersionsSurviveLayoutWork(t *testing.T) {
	for _, order := range []string{"oldest-first", "newest-first"} {
		t.Run(order, func(t *testing.T) { pinnedVersionsSurvive(t, order == "newest-first") })
	}
}

func pinnedVersionsSurvive(t *testing.T, newestFirst bool) {
	cfg := DeltaConfig{SlackMin: 2, SlackFrac: 0.5, CompactFrac: 100}
	var base []Edge
	for d := 1; d <= 6; d++ { // vertex 0: out-degree 6
		base = append(base, Edge{0, VertexID(d), Weight(d)})
	}
	for d := 4; d <= 7; d++ { // vertex 3: out-degree 4 of 6 slots
		base = append(base, Edge{3, VertexID(d), 0.5 * Weight(d)})
	}
	base = append(base, Edge{1, 2, 1.25}, Edge{2, 1, 1.25}) // a symmetric pair
	checkAdjSlices(t, "dense build", MustBuild(16, base))
	g0, err := MustBuild(16, base).ApplyDeltaCfg(Batch{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Batch 1: vertex 1 grows 1 → 6, past its 3 slots: relocated.
	var b1 Batch
	for d := 8; d <= 12; d++ {
		b1.Inserts = append(b1.Inserts, Edge{1, VertexID(d), 0.1 * Weight(d)})
	}
	// Batch 2: vertex 3 grows 4 → 5 and vertex 0 shrinks 6 → 3, both inside
	// their segments.
	b2 := Batch{
		Inserts: []Edge{{3, 8, 2.5}},
		Deletes: []Edge{{0, 1, 1}, {0, 3, 3}, {0, 5, 5}},
	}
	// Batch 3: vertex 1 (relocated, 6 of 12 slots) is edited where it lies — a
	// weight change on (1,10) between a delete before it and inserts on both
	// sides, the delete carrying a weight that is not the stored one — and
	// the pair (2,1) changes weight too.
	b3 := Batch{
		Deletes: []Edge{{1, 10, 99}, {1, 8, 99}, {2, 1, 99}},
		Inserts: []Edge{{1, 10, 7.5}, {1, 3, 0.75}, {1, 14, 1.75}, {2, 1, 2.25}},
	}
	// Batch 4: vertex 3 fills its segment exactly (5 → 6 of 6 slots).
	b4 := Batch{Inserts: []Edge{{3, 1, 0.25}}}
	// Batch 5: vertex 2 grows past what is left of the tail: re-lay.
	var b5 Batch
	for d := 3; d <= 15; d++ {
		b5.Inserts = append(b5.Inserts, Edge{2, VertexID(d), Weight(d) / 3})
	}

	rng := rand.New(rand.NewSource(12))
	pins := []versionPin{pinVersion(g0)}
	refs := []*CSR{MustBuild(16, base)}
	for i := 0; i < 11; i++ {
		g := pins[i].g
		var b Batch
		if designed := []Batch{b1, b2, b3, b4, b5}; i < len(designed) {
			b = designed[i]
		} else {
			b = randomValidBatch(rng, g, 8)
		}
		ng, err := g.ApplyDeltaCfg(b, cfg)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		switch i {
		case 0:
			if ng.relocations == g.relocations || ng.relayouts != g.relayouts {
				t.Fatalf("batch 1: relocations %d → %d, re-lays %d → %d; want a relocation in place",
					g.relocations, ng.relocations, g.relayouts, ng.relayouts)
			}
		case 1:
			if ng.relayouts != g.relayouts || ng.relocations != g.relocations ||
				ng.out.ptr[3] != g.out.ptr[3] || ng.out.len[3] != 5 || ng.out.ptr[0] != g.out.ptr[0] || ng.out.len[0] != 3 {
				t.Fatalf("batch 2: want vertices 3 and 0 edited where they lie (used %d, %d)", ng.out.len[3], ng.out.len[0])
			}
		case 2:
			if ng.relayouts != g.relayouts || ng.relocations != g.relocations || ng.out.ptr[1] != g.out.ptr[1] || ng.out.len[1] != 7 {
				t.Fatalf("batch 3: want vertex 1 edited where it lies (segment %d → %d, used %d)", g.out.ptr[1], ng.out.ptr[1], ng.out.len[1])
			}
		case 3:
			if ng.relayouts != g.relayouts || ng.relocations != g.relocations || ng.out.len[3] != ng.out.cap[3] {
				t.Fatalf("batch 4: want vertex 3 to fill its segment exactly (used %d of %d)", ng.out.len[3], ng.out.cap[3])
			}
		case 4:
			if !tailExhausted(g, ng, b, cfg) {
				t.Fatal("batch 5: want a re-lay forced by the tail")
			}
		case 10:
			if !tailExhausted(g, ng, b, cfg) {
				t.Fatal("batch 11: want a re-lay forced by the tail")
			}
		default:
			if ng.relayouts != g.relayouts {
				t.Fatalf("batch %d: want the head to move on in place", i+1)
			}
		}
		pins = append(pins, pinVersion(ng))
		refs = append(refs, refs[i].MustApply(b))
	}
	head := pins[len(pins)-1].g
	if ls := head.LayoutStats(); ls.UndoRebuilt != 0 || ls.UndoRecords == 0 {
		t.Fatalf("before anybody read an old version: %d of %d undo records rebuilt", ls.UndoRebuilt, ls.UndoRecords)
	}
	for k := range pins {
		i := k
		if newestFirst {
			i = len(pins) - 1 - k
		}
		name := fmt.Sprintf("g%d", i)
		checkAgainst(t, name, pins[i].g, refs[i])
		pins[i].check(t, name)
	}
	if ls := head.LayoutStats(); ls.UndoRebuilt == 0 || ls.UndoRebuilt > ls.UndoRecords {
		t.Fatalf("after every version was read: %d of %d undo records rebuilt", ls.UndoRebuilt, ls.UndoRecords)
	}

	// A View over the live head serves the same slices, except that a masked
	// vertex has none.
	view := NewView(head)
	for _, u := range []VertexID{0, 2} {
		want, _ := head.OutAdj(u)
		if got, _ := view.OutAdj(u); len(want) == 0 || !segIDsEqual(got, want) {
			t.Fatalf("view.OutAdj(%d) = %v, graph has %v", u, got, want)
		}
		view.Mask(u)
		if ids, ws := view.OutAdj(u); len(ids) != 0 || len(ws) != 0 || view.OutDegree(u) != 0 {
			t.Fatalf("masked vertex %d: OutAdj has %d ids, %d weights, OutDegree %d; want a sink", u, len(ids), len(ws), view.OutDegree(u))
		}
	}
}

// TestSlabReadPathAllocs pins the live read path at zero allocations: a full
// out- and in-edge sweep over a live slacked head reslices its slab segments
// and must not allocate.
func TestSlabReadPathAllocs(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 400, Edges: 1200, Seed: 23})
	sl, err := g.ApplyDeltaCfg(Batch{}, DefaultDeltaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sl.out.len == nil || sl.superseded() {
		t.Fatal("ApplyDelta did not return a live slacked head")
	}
	var sink float64
	allocs := testing.AllocsPerRun(10, func() {
		for v := 0; v < sl.NumVertices(); v++ {
			sl.OutEdges(VertexID(v), func(dst VertexID, w Weight) { sink += float64(w) })
			sl.InEdges(VertexID(v), func(src VertexID, w Weight) { sink += float64(src) })
		}
	})
	if allocs != 0 {
		t.Fatalf("slab read sweep allocates %v times per run, want 0", allocs)
	}
	_ = sink
}
