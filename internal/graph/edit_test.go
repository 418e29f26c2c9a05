package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Tests that hold the in-place edit, the audit over ordered ops and the lazy
// undo of superseded versions against what they replaced: mergeSeg → store,
// the map-based audit, and eager copies.

// setEditInPlaceForTest routes every vertex of the in-place path through
// mergeSeg → store (on == false), the way the layer worked before editSeg,
// and returns a function restoring the shipped behaviour. Not safe next to a
// parallel test that applies deltas.
func setEditInPlaceForTest(on bool) (restore func()) {
	old := editInPlace
	editInPlace = on
	return func() { editInPlace = old }
}

// segCase decodes fuzz bytes into a star graph — vertex 0 holds a sorted
// out-adjacency of up to 47 neighbors with gaps between the ids — and a batch
// that is valid against it: deletes and weight changes of present neighbors,
// inserts of absent ones, no id twice. Deletes carry weights that are not the
// stored ones. slack is how many slots the segment keeps beyond the
// post-batch degree (0: the batch fills the capacity exactly).
func segCase(data []byte) (g *CSR, ids []VertexID, ws []Weight, b Batch, slack int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	n := int(next()) % 48
	slack = int(next()) % 4
	id := VertexID(0)
	var es []Edge
	for k := 0; k < n; k++ {
		id += 1 + VertexID(next()%3)
		ids = append(ids, id)
		ws = append(ws, 0.5+Weight(k)+Weight(next())/512)
		es = append(es, Edge{0, id, ws[k]})
	}
	span := int(id) + 4
	used := map[VertexID]bool{0: true}
	for len(data) >= 2 {
		kind, arg := next(), next()
		x := VertexID(int(arg) % span)
		if used[x] {
			continue
		}
		used[x] = true
		w := 100 + Weight(arg)
		if i := searchID(ids, x); i < len(ids) && ids[i] == x {
			b.Deletes = append(b.Deletes, Edge{0, x, -w}) // not the stored weight
			if kind%2 == 1 {
				b.Inserts = append(b.Inserts, Edge{0, x, w})
			}
		} else {
			b.Inserts = append(b.Inserts, Edge{0, x, w})
		}
	}
	return MustBuild(span, es), ids, ws, b, slack
}

// orderedOps runs b through order + audit against g, as ApplyDelta does, and
// returns the out-direction ops.
func orderedOps(t *testing.T, g *CSR, b Batch) []segOp {
	t.Helper()
	sc := &deltaScratch{}
	sc.order(b)
	if g.audit(sc, false) > 0 {
		t.Fatalf("generated batch is invalid: %v", sc.rejection(b))
	}
	return sc.out
}

func segsEqual(aIDs []VertexID, aWs []Weight, bIDs []VertexID, bWs []Weight) bool {
	if len(aIDs) != len(bIDs) || len(aWs) != len(bWs) || len(aIDs) != len(aWs) {
		return false
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] || math.Float64bits(aWs[i]) != math.Float64bits(bWs[i]) {
			return false
		}
	}
	return true
}

// segSeed encodes a segCase input: n neighbors 2, 4, …, 2n, slack spare
// slots, then (kind, id) pairs — an odd kind on a present id is a weight
// change, an even one a delete, any kind on an absent id an insert.
func segSeed(n, slack byte, ops ...byte) []byte {
	data := []byte{n, slack}
	for k := byte(0); k < n; k++ {
		data = append(data, 1, k)
	}
	return append(data, ops...)
}

// segSeeds covers the shapes the edit has to get right: first and last slot,
// runs of deletes, weight changes, inserts at both ends, an empty segment, a
// capacity that is reached exactly.
func segSeeds(f *testing.F) {
	f.Add(segSeed(6, 0, 0, 2))                          // delete the first slot
	f.Add(segSeed(6, 0, 0, 12))                         // delete the last slot
	f.Add(segSeed(8, 1, 0, 4, 0, 6, 0, 8, 0, 10))       // a run of deletes
	f.Add(segSeed(5, 0, 1, 4, 0, 5, 1, 10, 0, 3))       // weight changes beside inserts
	f.Add(segSeed(0, 0, 0, 1, 0, 2, 0, 3))              // inserts into an empty segment
	f.Add(segSeed(4, 0, 0, 1, 0, 11, 0, 9))             // inserts at both ends, capacity reached exactly
	f.Add(segSeed(6, 2, 0, 2, 0, 12, 1, 6, 0, 7, 0, 1)) // first and last deleted around a weight change and inserts
}

// FuzzEditMatchesMerge: for an arbitrary sorted segment and a valid op list,
// the in-place edit leaves exactly what mergeSeg produces, and the audit has
// replaced every delete's weight by the stored one although the batch carried
// another.
func FuzzEditMatchesMerge(f *testing.F) {
	segSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, ws, b, slack := segCase(data)
		ops := orderedOps(t, g, b)
		for _, op := range ops {
			if !op.del {
				continue
			}
			stored, ok := g.HasEdge(0, op.id)
			if !ok || math.Float64bits(op.w) != math.Float64bits(stored) {
				t.Fatalf("delete of (0,%d) keeps weight %v, stored %v", op.id, op.w, stored)
			}
		}
		wantIDs, wantWs := mergeSeg(nil, nil, ids, ws, ops, false)
		capacity := len(wantIDs) + slack
		if capacity < len(ids) {
			capacity = len(ids)
		}
		gotIDs, gotWs := make([]VertexID, capacity), make([]Weight, capacity)
		copy(gotIDs, ids)
		copy(gotWs, ws)
		n := editSeg(gotIDs, gotWs, len(ids), ops)
		if !segsEqual(gotIDs[:n], gotWs[:n], wantIDs, wantWs) {
			t.Fatalf("segment %v %v, ops %+v:\n edit  %v %v\n merge %v %v", ids, ws, ops, gotIDs[:n], gotWs[:n], wantIDs, wantWs)
		}
	})
}

// FuzzUnapplyRoundTrip: taking the ops back from the merged segment returns
// the original ids and weights bit for bit — in the routine itself, and
// through a real version chain, where the superseded version must hand back
// every adjacency of both directions although it kept no copy of any.
func FuzzUnapplyRoundTrip(f *testing.F) {
	segSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, ws, b, slack := segCase(data)
		ops := orderedOps(t, g, b)
		postIDs, postWs := mergeSeg(nil, nil, ids, ws, ops, false)
		backIDs, backWs := mergeSeg(nil, nil, postIDs, postWs, ops, true)
		if !segsEqual(backIDs, backWs, ids, ws) {
			t.Fatalf("segment %v %v, ops %+v: un-applied to %v %v", ids, ws, ops, backIDs, backWs)
		}

		cfg := DeltaConfig{SlackMin: slack, SlackFrac: 1, CompactFrac: 100}
		old, err := g.ApplyDeltaCfg(Batch{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ng, err := old.ApplyDeltaCfg(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, "superseded", old, g)
		checkAgainst(t, "head", ng, g.MustApply(b))
	})
}

// checkAgainst requires version g to answer every per-vertex reader exactly
// as the dense reference ref does: adjacency slices of both directions,
// degrees, weight sums (bit for bit), HasEdge on every present edge and on
// absent pairs, and rank-ordered EdgeAt.
func checkAgainst(t *testing.T, name string, g, ref *CSR) {
	t.Helper()
	if g.NumEdges() != ref.NumEdges() || g.Symmetric() != ref.Symmetric() {
		t.Fatalf("%s: E %d symmetric %v, reference E %d symmetric %v", name, g.NumEdges(), g.Symmetric(), ref.NumEdges(), ref.Symmetric())
	}
	rank := 0
	for v := 0; v < ref.NumVertices(); v++ {
		u := VertexID(v)
		ids, ws := g.OutAdj(u)
		refIDs, refWs := ref.OutAdj(u)
		if !segsEqual(ids, ws, refIDs, refWs) || g.OutDegree(u) != len(refIDs) {
			t.Fatalf("%s: OutAdj(%d) = %v %v (degree %d), reference %v %v", name, v, ids, ws, g.OutDegree(u), refIDs, refWs)
		}
		if got, want := g.OutWeightSum(u), ref.OutWeightSum(u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: OutWeightSum(%d) = %v, reference %v", name, v, got, want)
		}
		for i, dst := range refIDs {
			if w, ok := g.HasEdge(u, dst); !ok || math.Float64bits(w) != math.Float64bits(refWs[i]) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v,%v, reference %v", name, v, dst, w, ok, refWs[i])
			}
			if e := g.EdgeAt(rank); e != (Edge{u, dst, refWs[i]}) {
				t.Fatalf("%s: EdgeAt(%d) = %+v, reference (%d,%d,%v)", name, rank, e, v, dst, refWs[i])
			}
			rank++
		}
		for _, x := range []VertexID{u, (u + 1) % VertexID(ref.NumVertices())} {
			_, want := ref.HasEdge(u, x)
			if _, ok := g.HasEdge(u, x); ok != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, reference %v", name, v, x, ok, want)
			}
		}
		ids, ws = g.InAdj(u)
		refIDs, refWs = ref.InAdj(u)
		if !segsEqual(ids, ws, refIDs, refWs) || g.InDegree(u) != len(refIDs) {
			t.Fatalf("%s: InAdj(%d) = %v %v (degree %d), reference %v %v", name, v, ids, ws, g.InDegree(u), refIDs, refWs)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// checkSameLayout requires two live heads to be the same physical layout,
// field for field: segment starts, capacities, used lengths, tail, dead
// slots, every used slot of both slabs, the
// cached aggregates and the layout counters.
func checkSameLayout(t *testing.T, step int, got, want *CSR) {
	t.Helper()
	if got.n != want.n || got.m != want.m || got.asymCount != want.asymCount ||
		got.relocations != want.relocations || got.relayouts != want.relayouts || got.undoRecords != want.undoRecords ||
		got.ver.edits != want.ver.edits {
		t.Fatalf("step %d: aggregates (m %d asym %d reloc %d relay %d undo %d edits %d), want (m %d asym %d reloc %d relay %d undo %d edits %d)",
			step, got.m, got.asymCount, got.relocations, got.relayouts, got.undoRecords, got.ver.edits,
			want.m, want.asymCount, want.relocations, want.relayouts, want.undoRecords, want.ver.edits)
	}
	for v := range want.outWeightSum {
		if math.Float64bits(got.outWeightSum[v]) != math.Float64bits(want.outWeightSum[v]) {
			t.Fatalf("step %d: outWeightSum[%d] = %v, want %v", step, v, got.outWeightSum[v], want.outWeightSum[v])
		}
	}
	for dir, p := range map[string][2]*adj{"out": {&got.out, &want.out}, "in": {&got.in, &want.in}} {
		a, w := p[0], p[1]
		if a.tail != w.tail || a.dead != w.dead || len(a.ids) != len(w.ids) {
			t.Fatalf("step %d %s: tail %d dead %d slab %d, want %d %d %d", step, dir,
				a.tail, a.dead, len(a.ids), w.tail, w.dead, len(w.ids))
		}
		for v := 0; v < want.n; v++ {
			if a.ptr[v] != w.ptr[v] || a.cap[v] != w.cap[v] || a.len[v] != w.len[v] {
				t.Fatalf("step %d %s %d: segment [%d,+%d) used %d, want [%d,+%d) used %d", step, dir, v,
					a.ptr[v], a.cap[v], a.len[v], w.ptr[v], w.cap[v], w.len[v])
			}
			lo, hi := a.ptr[v], a.ptr[v]+uint64(a.len[v])
			if !segsEqual(a.ids[lo:hi], a.ws[lo:hi], w.ids[lo:hi], w.ws[lo:hi]) {
				t.Fatalf("step %d %s %d: slab holds %v %v, want %v %v", step, dir, v, a.ids[lo:hi], a.ws[lo:hi], w.ids[lo:hi], w.ws[lo:hi])
			}
		}
	}
}

// TestEditMatchesStoreLayout is the layout identity behind the bit-equal
// simulated statistics: over every deltaConfigs suite (and two more slack
// shapes),
// the head the in-place edit produces is, after every batch, field for field
// the head that routing every vertex through mergeSeg → store produces —
// same segment addresses, capacities, lengths, tail, dead slots, relocation
// and re-lay counts.
func TestEditMatchesStoreLayout(t *testing.T) {
	cfgs := map[string]DeltaConfig{}
	for name, tc := range deltaConfigs {
		cfgs[name] = tc.cfg
	}
	cfgs["min1_frac30"] = DeltaConfig{SlackMin: 1, SlackFrac: 0.3, CompactFrac: 100}
	cfgs["roomy"] = DeltaConfig{SlackMin: 8, SlackFrac: 1, CompactFrac: 4}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			base := RMAT(RMATConfig{Vertices: 300, Edges: 1800, Seed: 11})
			edit, merge := base, base
			edited := false
			for step := 0; step < 40; step++ {
				b := randomValidBatch(rng, edit, 40)
				ne, err := edit.ApplyDeltaCfg(b, cfg)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				restore := setEditInPlaceForTest(false)
				nm, err := merge.ApplyDeltaCfg(b, cfg)
				restore()
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := ne.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkSameLayout(t, step, ne, nm)
				edited = edited || (ne.relayouts == edit.relayouts && b.Size() > 0)
				edit, merge = ne, nm
			}
			// The suites without slack or waste budget re-lay on every batch.
			if roomy := cfg.SlackMin > 0 && cfg.CompactFrac >= 0.25; roomy && !edited {
				t.Fatal("no batch was applied in place")
			}
		})
	}
}

// TestConcurrentFirstReads has 8 goroutines read every vertex of a freshly
// superseded version at once, each read possibly the first and so a rebuild:
// every reader must see the pre-batch graph, and each undo record is rebuilt
// at most once however many asked for it. Run under -race.
func TestConcurrentFirstReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := RMAT(RMATConfig{Vertices: 400, Edges: 4000, Seed: 9})
	old, err := ref.ApplyDelta(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	// Two in-place batches, so that rebuilding in old recurses into a version
	// that is itself superseded and being read for the first time.
	mid, err := old.ApplyDelta(randomValidBatch(rng, old, 300))
	if err != nil {
		t.Fatal(err)
	}
	refMid := mid.MustApply(Batch{})
	head, err := mid.ApplyDelta(randomValidBatch(rng, mid, 300))
	if err != nil {
		t.Fatal(err)
	}
	if head.relayouts != old.relayouts {
		t.Fatal("want both batches applied in place")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, want := old, ref
			if w%2 == 1 {
				g, want = mid, refMid
			}
			for i := 0; i < g.NumVertices(); i++ {
				u := VertexID((i*7 + w*53) % g.NumVertices()) // each goroutine its own order
				ids, ws := g.OutAdj(u)
				refIDs, refWs := want.OutAdj(u)
				if !segsEqual(ids, ws, refIDs, refWs) || g.OutDegree(u) != len(refIDs) ||
					math.Float64bits(g.OutWeightSum(u)) != math.Float64bits(want.OutWeightSum(u)) {
					t.Errorf("reader %d: out-adjacency of %d diverges from the pre-batch graph", w, u)
					return
				}
				ids, ws = g.InAdj(u)
				refIDs, refWs = want.InAdj(u)
				if !segsEqual(ids, ws, refIDs, refWs) {
					t.Errorf("reader %d: in-adjacency of %d diverges from the pre-batch graph", w, u)
					return
				}
			}
		}()
	}
	wg.Wait()
	ls := head.LayoutStats()
	if ls.UndoRebuilt == 0 || ls.UndoRebuilt > ls.UndoRecords {
		t.Fatalf("rebuilt %d segments from %d undo records; want every record rebuilt at most once", ls.UndoRebuilt, ls.UndoRecords)
	}
	if want := uint64(len(old.ver.undo[outDir].vs) + len(old.ver.undo[inDir].vs) + len(mid.ver.undo[outDir].vs) + len(mid.ver.undo[inDir].vs)); ls.UndoRebuilt != want {
		t.Fatalf("rebuilt %d segments, the two superseded versions hold %d records and every vertex was read", ls.UndoRebuilt, want)
	}
}

// TestSteadyStateAllocs pins what a steady in-place batch allocates: the head
// object, plus the undo chunks amortized over the batches that share one —
// and nothing when a superseded version is never read. ApplyDelta, the
// wrapper that reuses the version's tuning, adds nothing to ApplyDeltaCfg.
func TestSteadyStateAllocs(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 2000, Edges: 16000, Seed: 4})
	cfg := DefaultDeltaConfig()
	cfg.CompactFrac = 1e9 // the waste trigger counts edits; keep it out of the run
	steady := func(apply func(*CSR, Batch) (*CSR, error)) float64 {
		cur, err := g.ApplyDeltaCfg(Batch{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A batch and its exact inverse, so no segment ever outgrows its gap.
		fwd := randomValidBatch(rand.New(rand.NewSource(8)), cur, 200)
		rev := Batch{Inserts: fwd.Deletes, Deletes: fwd.Inserts}
		batches := [2]Batch{fwd, rev}
		relays := cur.relayouts
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			ng, err := apply(cur, batches[i&1])
			if err != nil {
				t.Fatal(err)
			}
			cur = ng
			i++
		})
		if cur.relayouts != relays {
			t.Fatalf("%d re-lays during the run; want every batch in place", cur.relayouts-relays)
		}
		return allocs
	}
	direct := steady(func(c *CSR, b Batch) (*CSR, error) { return c.ApplyDeltaCfg(b, cfg) })
	if direct > 2 {
		t.Fatalf("a steady in-place batch allocates %v times, want the head object plus amortized chunk growth (<= 2)", direct)
	}
	if wrapped := steady((*CSR).ApplyDelta); wrapped != direct {
		t.Fatalf("ApplyDelta allocates %v times a batch, ApplyDeltaCfg %v; the wrapper must add nothing", wrapped, direct)
	}
}
