// Package graph provides the graph substrate JetStream operates on: a
// Compressed Sparse Row representation with both out- and in-edge indexes
// (the paper's §4.7 storage format), batch mutation producing a new CSR
// version (host-side graph versioning), synthetic workload generators that
// stand in for the paper's five real-world datasets, and an edge-cut
// partitioner used to slice graphs that exceed the on-chip queue capacity.
//
// Two mutation paths produce the next graph version G+Δ:
//
//   - Apply rebuilds a dense CSR from scratch — the paper's "simplest case"
//     (§4.7) where the host writes a complete new CSR and swaps the pointer.
//     Cost O(V+E) per batch regardless of batch size.
//   - ApplyDelta (delta.go) edits the adjacencies a batch touches where they
//     lie, using per-vertex slack gaps in the edge arrays (a vertex that
//     outgrows its gap moves to tail headroom at the end of the slab), and
//     preserves the versioned pointer-swap semantics by leaving the batch's
//     ops with the superseded version, which rebuilds a pre-batch adjacency
//     only when somebody reads it. Cost O(|Δ|·log d + slots shifted) per
//     batch; a whole-graph re-lay happens only when accumulated waste crosses
//     DeltaConfig.CompactFrac or the tail runs out.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex. The accelerator's event payloads carry
// 32-bit vertex ids, so the substrate uses the same width.
type VertexID = uint32

// Weight is an edge attribute. Selection algorithms interpret it as a
// distance/width; accumulative algorithms as a transition weight.
type Weight = float64

// Edge is a directed, weighted edge.
type Edge struct {
	Src, Dst VertexID
	Weight   Weight
}

// adj is one direction of the adjacency index: out-edges keyed by source or
// in-edges keyed by destination.
//
// A dense adj (Build/buildSorted) stores vertex v's neighbors in
// [ptr[v], ptr[v+1]); cap and len are nil. A slacked adj (the delta mutation
// layer) gives every vertex its own segment [ptr[v], ptr[v]+cap[v]) of which
// the first len[v] slots are used; the gap absorbs insertions without moving
// other segments. Behind the packed segments the slab keeps tail headroom,
// [tail, len(ids)) still unused: a vertex that outgrows its capacity moves
// there and leaves its old slots dead. The slab slices themselves never move
// or grow, so every version of a mutation chain shares them.
type adj struct {
	ptr []uint64 // n+1 entries; ptr[n] is the end of the packed region
	cap []uint32 // slacked: segment capacity per vertex
	len []uint32 // slacked: used slots per vertex
	ids []VertexID
	ws  []Weight

	tail uint64 // slacked: first unused slot of the tail headroom
	dead int    // slacked: slots vacated by relocations since the last re-lay
}

// live returns v's adjacency as stored by the live layout: the slab segment
// [ptr[v], ptr[v]+len[v]) of a slacked layout, [ptr[v], ptr[v+1]) of a dense
// one. Callers must hold a live (unfrozen) version — frozen versions read
// through their undo records in OutAdj/InAdj. The returned slices alias the
// graph's storage.
func (a *adj) live(v VertexID) ([]VertexID, []Weight) {
	lo := a.ptr[v]
	hi := a.ptr[v+1]
	if a.len != nil {
		hi = lo + uint64(a.len[v])
	}
	return a.ids[lo:hi], a.ws[lo:hi]
}

// deg returns v's degree on the live layout.
func (a *adj) deg(v VertexID) int {
	if a.len != nil {
		return int(a.len[v])
	}
	return int(a.ptr[v+1] - a.ptr[v])
}

// CSR is a compressed-sparse-row graph with both directions indexed.
// JetStream requires the in-edge index for reapproximation request events
// (paper §4.7: "JetStream requires access to the incoming edges for each
// vertex, which are stored in another CSR structure").
//
// Logically every CSR version is immutable: readers of any version always
// observe that version's edge set. Physically, ApplyDelta mutates the edge
// arrays shared along a version chain and a superseded version keeps the ops
// of the batch that superseded it (see delta.go), so reads on it take those
// ops back from the next version's adjacency. A version that has never been
// superseded reads straight from its arrays.
type CSR struct {
	n int
	m int // logical directed edge count

	out, in adj

	// outWeightSum caches the total outgoing edge weight per vertex;
	// Adsorption normalizes propagation by it.
	outWeightSum []float64

	// asymCount is the number of vertices whose out-neighbor id list differs
	// from their in-neighbor id list; 0 means the edge set is closed under
	// reversal. Maintained incrementally by the delta mutation layer.
	asymCount int

	// relocations, relayouts and undoRecords count the layout work done along
	// this version's mutation chain (LayoutStats).
	relocations, relayouts, undoRecords uint64

	// ver holds delta-mutation bookkeeping: nil for plain dense builds,
	// otherwise the version's role in a mutation chain (head scratch state or
	// the undo records of a superseded version). See delta.go.
	ver *versionInfo
}

// Symmetric reports whether every edge (u,v) has a reverse edge (v,u),
// ignoring weights. Maintained at construction and across delta mutation, so
// this is O(1). Undirected algorithms (CC) check it instead of re-scanning
// every edge with HasEdge.
func (g *CSR) Symmetric() bool { return g.asymCount == 0 }

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return g.m }

// EdgeSlots returns the physical size of the out-edge arrays — edge count
// plus slack gaps and tail headroom for delta-mutated versions, exactly the
// edge count for dense builds. The timing layer places the in-edge region
// after this many out-edge records so modeled addresses never alias.
func (g *CSR) EdgeSlots() int { return len(g.out.ids) }

// LayoutStats describes the physical layout of a live version and the work
// the delta mutation layer has spent on it.
type LayoutStats struct {
	// Relocations counts adjacency segments moved to tail headroom because a
	// batch outgrew their capacity; Relayouts counts whole-graph re-lays
	// (including the first, dense → slacked). Both are cumulative along the
	// version chain and zero for dense builds.
	Relocations, Relayouts uint64
	// EdgeSlots is the physical slab size and DeadSlots the part of it
	// vacated by relocations since the last re-lay, both directions summed.
	EdgeSlots, DeadSlots int
	// UndoRecords counts the per-vertex undo records in-place batches left
	// with the versions they superseded, UndoRebuilt how many of them a reader
	// of an old version ever turned back into an adjacency — the traffic that
	// decides whether keeping ops instead of copies pays. Cumulative along the
	// chain; UndoRebuilt keeps growing while superseded versions are read.
	UndoRecords, UndoRebuilt uint64
}

// LayoutStats reports g's layout bookkeeping in O(1).
func (g *CSR) LayoutStats() LayoutStats {
	ls := LayoutStats{
		Relocations: g.relocations,
		Relayouts:   g.relayouts,
		EdgeSlots:   len(g.out.ids) + len(g.in.ids),
		DeadSlots:   g.out.dead + g.in.dead,
		UndoRecords: g.undoRecords,
	}
	if g.ver != nil {
		ls.UndoRebuilt = g.ver.rebuilt.Load()
	}
	return ls
}

// RepresentationMix reports how many vertices each direction stores outside
// the slab, plus the vertex count. Every live version keeps each adjacency in
// its slab segment, so it returns (0, 0, n); it is kept only for the
// benchmark's graph.inline_frac probe, until that probe is dropped.
func (g *CSR) RepresentationMix() (outInline, inInline, n int) { return 0, 0, g.n }

// OutAdj returns v's out-adjacency (destinations and weights, sorted by
// destination, equal length) as observed by this version. A superseded version
// answers from its undo records — the first read of a vertex the superseding
// batch touched rebuilds its pre-batch adjacency — and defers to the next
// version in the chain for every other vertex. The slices alias the graph's
// storage: read them, do not keep them across a mutation of the chain's head.
// This is the engines' generation stream — one sequential burst per vertex
// (paper §4.3).
func (g *CSR) OutAdj(v VertexID) ([]VertexID, []Weight) {
	if !g.superseded() {
		return g.out.live(v)
	}
	return g.adjOf(v, outDir)
}

// superseded reports whether ApplyDelta has frozen g in place. The per-vertex
// readers test it first: the engines call them once per event, and a version
// that reads straight from its arrays should pay for nothing else.
func (g *CSR) superseded() bool { return g.ver != nil && g.ver.frozen }

// InAdj returns v's in-adjacency (sources and weights, sorted by source) as
// observed by this version, under the same aliasing rule as OutAdj.
func (g *CSR) InAdj(v VertexID) ([]VertexID, []Weight) {
	if !g.superseded() {
		return g.in.live(v)
	}
	return g.adjOf(v, inDir)
}

// degree returns v's degree in direction d as this version observes it; a
// superseded version reads it off the undo record without rebuilding anything.
func (g *CSR) degree(v VertexID, d direction) int {
	if !g.superseded() {
		return g.adj(d).deg(v)
	}
	cur, r := g.at(v, d)
	if r == nil {
		return cur.adj(d).deg(v)
	}
	return int(r.deg)
}

// OutDegree returns the number of outgoing edges of v.
func (g *CSR) OutDegree(v VertexID) int { return g.degree(v, outDir) }

// InDegree returns the number of incoming edges of v.
func (g *CSR) InDegree(v VertexID) int { return g.degree(v, inDir) }

// OutWeightSum returns the sum of weights on v's outgoing edges.
func (g *CSR) OutWeightSum(v VertexID) float64 {
	if !g.superseded() {
		return g.outWeightSum[v]
	}
	cur, r := g.at(v, outDir)
	if r == nil {
		return cur.outWeightSum[v]
	}
	return r.wsum
}

// OutEdges calls fn for every outgoing edge of u, without allocating. Loops
// that run per event iterate OutAdj instead and save the call per edge.
func (g *CSR) OutEdges(u VertexID, fn func(dst VertexID, w Weight)) {
	ids, ws := g.OutAdj(u)
	for i, dst := range ids {
		fn(dst, ws[i])
	}
}

// InEdges calls fn for every incoming edge of v.
func (g *CSR) InEdges(v VertexID, fn func(src VertexID, w Weight)) {
	ids, ws := g.InAdj(v)
	for i, src := range ids {
		fn(src, ws[i])
	}
}

// HasEdge reports whether edge (u,v) exists and, if so, its weight. Out
// adjacencies are sorted by destination so this is a binary search. A source
// outside the graph has no edges (batch validation probes unchecked ids).
func (g *CSR) HasEdge(u, v VertexID) (Weight, bool) {
	if int(u) >= g.n {
		return 0, false
	}
	ids, ws := g.OutAdj(u)
	if i := searchID(ids, v); i < len(ids) && ids[i] == v {
		return ws[i], true
	}
	return 0, false
}

// searchIn reports whether (u,v) exists as an in edge of v and, if so, its
// weight — the in-direction mirror of HasEdge, used by Validate.
func (g *CSR) searchIn(u, v VertexID) (Weight, bool) {
	ids, ws := g.InAdj(v)
	if i := searchID(ids, u); i < len(ids) && ids[i] == u {
		return ws[i], true
	}
	return 0, false
}

// EdgeAt returns the i-th edge in (src, dst) order without materializing the
// whole edge list; the update-stream generator samples edges with it. On
// dense layouts this is a binary search over the pointer array; slacked
// layouts rank through a lazily built per-version prefix index (one O(V)
// build per graph version, amortized over the batch's samples). The rank
// index is built on first use, so EdgeAt on a slacked version is not safe for
// concurrent callers — the single-threaded host mutation path is the only
// intended user.
func (g *CSR) EdgeAt(i int) Edge {
	if i < 0 || i >= g.m {
		panic(fmt.Sprintf("graph: EdgeAt(%d) out of range", i))
	}
	if g.out.len == nil && (g.ver == nil || !g.ver.frozen) {
		// Dense layout: pointers double as the rank index.
		u := sort.Search(g.n, func(v int) bool { return g.out.ptr[v+1] > uint64(i) })
		return Edge{VertexID(u), g.out.ids[i], g.out.ws[i]}
	}
	if g.ver != nil && !g.ver.frozen {
		cum := g.ver.rankIndex(g)
		u := sort.Search(g.n, func(v int) bool { return cum[v+1] > uint64(i) })
		ids, ws := g.out.live(VertexID(u))
		k := uint64(i) - cum[u]
		return Edge{VertexID(u), ids[k], ws[k]}
	}
	// Superseded version: rare path, scan the logical degrees (which rebuild
	// nothing) and read the one adjacency the rank falls into.
	for v := 0; v < g.n; v++ {
		deg := g.OutDegree(VertexID(v))
		if i < deg {
			ids, ws := g.OutAdj(VertexID(v))
			return Edge{VertexID(v), ids[i], ws[i]}
		}
		i -= deg
	}
	panic("graph: EdgeAt rank exceeded edge count") // unreachable: i < g.m
}

// Edges returns all edges in (src, dst) order; used by tests, mutation, and
// checkpoint serialization (which canonicalizes the slack layout away by
// construction — the returned list never contains gap slots).
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		ids, ws := g.OutAdj(VertexID(u))
		for i, dst := range ids {
			out = append(out, Edge{VertexID(u), dst, ws[i]})
		}
	}
	return out
}

// EdgeOffset returns the index of u's adjacency in the flat edge arrays;
// the timing layer uses it to compute edge-cache addresses. A segment moves
// only when a batch relocates it or re-lays the graph, so offsets must be
// re-queried after a version swap; the offset arrays are shared along the
// version chain, so a superseded version reports where the segment is now.
func (g *CSR) EdgeOffset(u VertexID) uint64 { return g.out.ptr[u] }

// InEdgeOffset returns the index of v's in-adjacency in the flat in-edge
// arrays; the reapproximation phase charges its reads against a region
// placed after the out-edge array.
func (g *CSR) InEdgeOffset(v VertexID) uint64 { return g.in.ptr[v] }

// String summarizes the graph.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{V=%d, E=%d}", g.n, g.NumEdges())
}

// Validate checks structural invariants: monotone pointers, used counts
// within capacity, in/out edge sets mirror each other, adjacencies sorted,
// consistent cached aggregates (outWeightSum, the symmetry count), and no
// out-of-range endpoints. Tests call it after every build and mutation.
//
// The mirror check binary-searches the opposite-direction adjacency for each
// edge (O(E log d̄)) instead of materializing an O(E) map, so
// Validate-after-every-batch test loops stay cheap.
func (g *CSR) Validate() error {
	live := g.ver == nil || !g.ver.frozen
	if live {
		if err := g.validateLayout(); err != nil {
			return err
		}
	}
	outCount, inCount := 0, 0
	asym := 0
	for v := 0; v < g.n; v++ {
		ids, ws := g.OutAdj(VertexID(v))
		outCount += len(ids)
		for i, dst := range ids {
			if int(dst) >= g.n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", v, dst)
			}
			if i > 0 && ids[i-1] >= dst {
				return fmt.Errorf("graph: out adjacency of %d not strictly sorted", v)
			}
			w, ok := g.searchIn(VertexID(v), dst)
			if !ok {
				return fmt.Errorf("graph: out edge (%d,%d) has no in mirror", v, dst)
			}
			if w != ws[i] {
				return fmt.Errorf("graph: weight mismatch on edge (%d,%d)", v, dst)
			}
		}
		inIDs, _ := g.InAdj(VertexID(v))
		inCount += len(inIDs)
		for i, src := range inIDs {
			if int(src) >= g.n {
				return fmt.Errorf("graph: in edge (%d,%d) out of range", src, v)
			}
			if i > 0 && inIDs[i-1] >= src {
				return fmt.Errorf("graph: in adjacency of %d not strictly sorted", v)
			}
		}
		// Every out edge has an in mirror, per-vertex lists are duplicate-free
		// (strictly sorted), and the totals match below — so the in set is
		// exactly the mirror of the out set without a second search pass.
		if !segIDsEqual(ids, inIDs) {
			asym++
		}
		var sum float64
		for _, w := range ws {
			sum += w
		}
		if math.Abs(sum-g.OutWeightSum(VertexID(v))) > 1e-9 {
			return fmt.Errorf("graph: stale outWeightSum at vertex %d", v)
		}
	}
	if outCount != g.m {
		return fmt.Errorf("graph: out edge count %d != recorded count %d", outCount, g.m)
	}
	if inCount != g.m {
		return fmt.Errorf("graph: in edge count %d != out edge count %d", inCount, g.m)
	}
	if asym != g.asymCount {
		return fmt.Errorf("graph: symmetry count %d, recomputed %d", g.asymCount, asym)
	}
	return nil
}

// validateLayout checks the physical array invariants of a live version.
func (g *CSR) validateLayout() error {
	if (g.out.len == nil) != (g.in.len == nil) {
		return fmt.Errorf("graph: slack layout must cover both directions")
	}
	if err := g.out.validate("out", g.n, g.m); err != nil {
		return err
	}
	return g.in.validate("in", g.n, g.m)
}

// validate checks one direction's physical invariants: dense pointers are a
// prefix sum over exactly m slots; slacked segments hold len ≤ cap, lie inside
// the slab below the tail, are pairwise disjoint, and together with the dead
// slots and the free tail account for every slot of the slab.
func (a *adj) validate(dir string, n, m int) error {
	if len(a.ptr) != n+1 {
		return fmt.Errorf("graph: %s pointer array length mismatch", dir)
	}
	if len(a.ids) != len(a.ws) {
		return fmt.Errorf("graph: %s id and weight arrays differ in length", dir)
	}
	if a.len == nil {
		if a.ptr[0] != 0 || a.ptr[n] != uint64(len(a.ids)) || m != len(a.ids) {
			return fmt.Errorf("graph: dense %s layout records %d edges over %d slots", dir, m, len(a.ids))
		}
		for v := 0; v < n; v++ {
			if a.ptr[v] > a.ptr[v+1] {
				return fmt.Errorf("graph: non-monotone %s pointers at vertex %d", dir, v)
			}
		}
		return nil
	}
	if len(a.cap) != n || len(a.len) != n {
		return fmt.Errorf("graph: %s capacity/length array length mismatch", dir)
	}
	if a.tail > uint64(len(a.ids)) {
		return fmt.Errorf("graph: %s tail %d beyond the slab (%d slots)", dir, a.tail, len(a.ids))
	}
	order := make([]int, n)
	live := uint64(0)
	for v := range order {
		order[v] = v
		if a.len[v] > a.cap[v] {
			return fmt.Errorf("graph: %s segment of %d overflows its capacity", dir, v)
		}
		if a.ptr[v]+uint64(a.cap[v]) > a.tail {
			return fmt.Errorf("graph: %s segment of %d reaches into the free tail", dir, v)
		}
		live += uint64(a.cap[v])
	}
	sort.Slice(order, func(i, j int) bool {
		if a.ptr[order[i]] != a.ptr[order[j]] {
			return a.ptr[order[i]] < a.ptr[order[j]]
		}
		return a.cap[order[i]] < a.cap[order[j]] // empty segments first
	})
	for i := 1; i < n; i++ {
		u, v := order[i-1], order[i]
		if a.ptr[u]+uint64(a.cap[u]) > a.ptr[v] {
			return fmt.Errorf("graph: %s segments of %d and %d overlap", dir, u, v)
		}
	}
	if free := uint64(len(a.ids)) - a.tail; live+uint64(a.dead)+free != uint64(len(a.ids)) {
		return fmt.Errorf("graph: %s slab of %d slots != %d live + %d dead + %d free", dir, len(a.ids), live, a.dead, free)
	}
	return nil
}

// segIDsEqual compares two sorted neighbor-id lists elementwise.
func segIDsEqual(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
