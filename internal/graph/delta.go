package graph

import (
	"fmt"
	"slices"
	"sort"
)

// DeltaConfig tunes the incremental mutation layer.
type DeltaConfig struct {
	// SlackMin is the minimum number of spare slots reserved per vertex per
	// direction when a slacked layout is laid out.
	SlackMin int
	// SlackFrac reserves max(SlackMin, deg·SlackFrac) spare slots per vertex,
	// so high-degree vertices absorb proportionally more churn between
	// re-lays. The slab's tail headroom — where a vertex that outgrows its gap
	// is relocated — is sized by the same rule applied to the whole slab.
	SlackFrac float64
	// CompactFrac bounds accumulated waste: once the updates applied in place
	// plus the slots left dead by relocations since the last re-lay exceed
	// CompactFrac·E, the next batch re-lays the whole graph with fresh slack
	// everywhere. This amortizes the O(V+E) re-lay over Θ(E) cheap updates.
	CompactFrac float64
	// InlineCap enables the degree-adaptive layout: vertices with at most
	// InlineCap neighbors in a direction are stored directly in a per-vertex
	// cache-line record (inline.go) instead of the slack slab. 0 keeps the
	// uniform slab layout; values above the record capacity (4) are clamped.
	// The slab still reserves full capacity for every vertex, so flipping the
	// knob changes locality, never addresses or semantics.
	InlineCap int
}

// DefaultDeltaConfig returns the tuning used by the system hot path.
func DefaultDeltaConfig() DeltaConfig {
	return DeltaConfig{SlackMin: 4, SlackFrac: 0.125, CompactFrac: 0.25, InlineCap: inlineCapMax}
}

// outUndo snapshots one vertex's pre-mutation out-adjacency. When ApplyDelta
// mutates arrays shared with an older version, the older version keeps
// serving its original edge set through these snapshots.
type outUndo struct {
	v    VertexID
	dst  []VertexID
	w    []Weight
	wsum float64
}

// inUndo is the in-direction snapshot.
type inUndo struct {
	v   VertexID
	src []VertexID
	w   []Weight
}

// versionInfo is the delta-mutation bookkeeping hung off a CSR.
//
// On the live head of a mutation chain (frozen == false) it carries the
// config, the edits-since-re-lay counter, reusable scratch buffers, and the
// lazy EdgeAt rank index. When the head is superseded by ApplyDelta, it is
// frozen in place: its undo lists (sorted by vertex) preserve the adjacencies
// the mutation overwrote, and next links to the version that replaced it so
// reads walk forward for vertices the local undo does not cover.
type versionInfo struct {
	cfg     DeltaConfig
	frozen  bool
	undoOut []outUndo // sorted by v; pre-mutation out segments
	undoIn  []inUndo  // sorted by v; pre-mutation in segments
	next    *CSR

	edits   int // in-place updates applied since the last re-lay
	scratch *deltaScratch
	cum     []uint64 // lazy EdgeAt rank index; nil until first use
}

// lookupOut returns the frozen out-snapshot for v, or nil if v's out-adjacency
// was not touched by the batch that superseded this version.
func (vi *versionInfo) lookupOut(v VertexID) *outUndo {
	s := vi.undoOut
	i := sort.Search(len(s), func(i int) bool { return s[i].v >= v })
	if i < len(s) && s[i].v == v {
		return &s[i]
	}
	return nil
}

// lookupIn is the in-direction mirror of lookupOut.
func (vi *versionInfo) lookupIn(v VertexID) *inUndo {
	s := vi.undoIn
	i := sort.Search(len(s), func(i int) bool { return s[i].v >= v })
	if i < len(s) && s[i].v == v {
		return &s[i]
	}
	return nil
}

// csrWithVer bundles a head CSR with its versionInfo so the steady-state
// in-place path allocates exactly one object per batch (undo snapshots come
// from the scratch arenas, amortized across batches).
type csrWithVer struct {
	csr CSR
	vi  versionInfo
}

// edgeOp is one batch update tagged with its operation; a weight change is a
// (delete, insert) pair on the same edge and the tag keeps them distinct
// after sorting.
type edgeOp struct {
	e   Edge
	del bool
}

// deltaScratch holds buffers reused across batches so steady-state in-place
// application allocates only the head object; even the undo snapshots old
// versions retain come from chunked arenas whose allocations amortize away.
type deltaScratch struct {
	bySrc, byDst []edgeOp   // batch updates sorted for each direction
	ids          []VertexID // merge buffer: neighbor ids
	ws           []Weight   // merge buffer: weights
	affected     []VertexID // vertices whose adjacency changed this batch
	cumBuf       []uint64   // backing array for the live head's rank index

	del, seen map[edgeKey]bool // checkBatch sets, cleared per batch

	slab    slabArena // undo segment snapshots
	entries undoArena // undo entry lists
}

type edgeKey struct{ u, v VertexID }

// slabArena hands out paired (id, weight) snapshot buffers from shared
// chunks. Chunks are append-only: once a sub-slice is handed to a frozen
// version it is never overwritten, and a chunk is dropped for a fresh one
// when the next request does not fit — the garbage collector reclaims it
// when the last frozen version referencing it dies.
type slabArena struct {
	ids []VertexID
	ws  []Weight
}

const slabChunkMin = 1 << 15

// reserve guarantees the next n elements fit in the current chunk, so a batch
// that pre-computes its total snapshot footprint takes at most one chunk
// allocation (amortized to a fraction by the 8x over-allocation).
func (a *slabArena) reserve(n int) {
	if len(a.ids)+n > cap(a.ids) {
		c := 8 * n
		if c < slabChunkMin {
			c = slabChunkMin
		}
		a.ids = make([]VertexID, 0, c)
		a.ws = make([]Weight, 0, c)
	}
}

func (a *slabArena) alloc(n int) ([]VertexID, []Weight) {
	if len(a.ids)+n > cap(a.ids) {
		c := 8 * n
		if c < slabChunkMin {
			c = slabChunkMin
		}
		a.ids = make([]VertexID, 0, c)
		a.ws = make([]Weight, 0, c)
	}
	i := len(a.ids)
	a.ids = a.ids[:i+n]
	a.ws = a.ws[:i+n]
	return a.ids[i : i+n : i+n], a.ws[i : i+n : i+n]
}

// undoArena chunk-allocates the per-batch undo entry lists; each batch's list
// must be one contiguous run so frozen lookups can binary-search it.
type undoArena struct {
	out []outUndo
	in  []inUndo
}

const entryChunkMin = 1 << 10

func (a *undoArena) allocOut(n int) []outUndo {
	if len(a.out)+n > cap(a.out) {
		c := 8 * n
		if c < entryChunkMin {
			c = entryChunkMin
		}
		a.out = make([]outUndo, 0, c)
	}
	i := len(a.out)
	a.out = a.out[:i+n]
	return a.out[i : i : i+n]
}

func (a *undoArena) allocIn(n int) []inUndo {
	if len(a.in)+n > cap(a.in) {
		c := 8 * n
		if c < entryChunkMin {
			c = entryChunkMin
		}
		a.in = make([]inUndo, 0, c)
	}
	i := len(a.in)
	a.in = a.in[:i+n]
	return a.in[i : i : i+n]
}

// rankIndex returns the prefix-degree array for EdgeAt on a slacked live
// layout, building it on first use. Each ApplyDelta returns a fresh head with
// cum == nil, and a superseded version's cum and scratch aliases are severed
// when it is superseded (applyInPlace freezes it; relay detaches it),
// so a cached index can never reflect another version's degrees. The backing
// array is owned by the scratch when one is attached; a detached version
// builds a private index.
func (vi *versionInfo) rankIndex(g *CSR) []uint64 {
	if vi.cum == nil {
		var buf []uint64
		if vi.scratch != nil {
			buf = vi.scratch.cumBuf
		}
		if cap(buf) < g.n+1 {
			buf = make([]uint64, g.n+1)
			if vi.scratch != nil {
				vi.scratch.cumBuf = buf
			}
		}
		cum := buf[:g.n+1]
		cum[0] = 0
		for v := 0; v < g.n; v++ {
			// Logical degree, not len: inline vertices keep len == 0.
			cum[v+1] = cum[v] + uint64(g.out.deg(VertexID(v)))
		}
		vi.cum = cum
	}
	return vi.cum
}

// ApplyDelta produces the next graph version G+Δ like Apply, but touches only
// the adjacencies of vertices the batch mutates: updates are merged into each
// affected vertex's segment within its slack gap, a vertex that outgrows its
// gap moves to the slab's tail headroom, and outWeightSum, the edge count,
// and the symmetry count are maintained incrementally. Cost is
// O(Σ deg(affected) + |Δ| log |Δ|) per batch instead of O(V+E).
//
// The versioned pointer-swap contract is preserved: the receiver continues to
// serve its exact pre-batch edge set (the recovery engine reads the old and
// new versions simultaneously during a batch). Physically the edge arrays are
// shared along the version chain and the receiver keeps snapshots of the
// segments the mutation overwrote, so reads on superseded versions cost one
// binary search per touched vertex. ApplyDelta must not race with readers of
// any version in the chain; the single-threaded host mutation path is the
// intended writer, and engine phases only run between mutations.
//
// ApplyDelta re-lays the whole graph (relay) only when measured waste says
// so — in-place edits plus dead slots past the configured threshold, or the
// tail headroom cannot take this batch's relocations — or when the receiver
// has no mutable slacked layout to edit (a dense build, a superseded
// version). Validation errors match Apply's.
//
//jetlint:hotpath
func (g *CSR) ApplyDelta(b Batch) (*CSR, error) {
	cfg := DefaultDeltaConfig()
	if g.ver != nil {
		cfg = g.ver.cfg
	}
	return g.ApplyDeltaCfg(b, cfg)
}

// ApplyDeltaCfg is ApplyDelta with an explicit tuning; tests use tiny slack
// values to force the relocation, tail-exhaustion and compaction paths.
func (g *CSR) ApplyDeltaCfg(b Batch, cfg DeltaConfig) (*CSR, error) {
	// A superseded version must not mutate the shared arrays again; divergent
	// histories (speculative replays, tests) re-lay into arrays of their own.
	live := g.ver == nil || !g.ver.frozen
	var sc *deltaScratch
	edits := 0
	if live && g.ver != nil {
		sc = g.ver.scratch
		edits = g.ver.edits
	}
	if sc == nil {
		sc = &deltaScratch{}
	}
	if err := g.checkBatch(b, sc); err != nil {
		return nil, err
	}
	sc.load(b)
	edits += b.Size()
	if live && g.out.len != nil &&
		edits+g.out.dead+g.in.dead <= compactThreshold(cfg, g.m) &&
		g.out.tailFits(sc.bySrc, srcOf, int(g.inlCap)) &&
		g.in.tailFits(sc.byDst, dstOf, int(g.inlCap)) {
		return g.applyInPlace(cfg, sc, edits), nil
	}
	return g.relay(cfg, sc), nil
}

// compactThreshold returns the waste budget before a re-lay; the SlackMin
// floor keeps tiny graphs from re-laying on every batch.
func compactThreshold(cfg DeltaConfig, m int) int {
	t := int(cfg.CompactFrac * float64(m))
	if t < cfg.SlackMin {
		t = cfg.SlackMin
	}
	return t
}

// checkBatch validates b against g with the same rules and messages as Apply.
// The scratch's set maps are reused across batches (cleared, not
// reallocated).
func (g *CSR) checkBatch(b Batch, sc *deltaScratch) error {
	if sc.del == nil {
		sc.del = make(map[edgeKey]bool, len(b.Deletes))
		sc.seen = make(map[edgeKey]bool, len(b.Inserts))
	}
	clear(sc.del)
	clear(sc.seen)
	del, seen := sc.del, sc.seen
	for _, e := range b.Deletes {
		k := edgeKey{e.Src, e.Dst}
		if del[k] {
			return fmt.Errorf("graph: duplicate delete of (%d,%d)", e.Src, e.Dst)
		}
		if _, ok := g.HasEdge(e.Src, e.Dst); !ok {
			return fmt.Errorf("graph: delete of missing edge (%d,%d)", e.Src, e.Dst)
		}
		del[k] = true
	}
	for _, e := range b.Inserts {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			return fmt.Errorf("graph: insert (%d,%d) out of range", e.Src, e.Dst)
		}
		k := edgeKey{e.Src, e.Dst}
		if seen[k] {
			return fmt.Errorf("graph: duplicate insert of (%d,%d)", e.Src, e.Dst)
		}
		seen[k] = true
		if _, ok := g.HasEdge(e.Src, e.Dst); ok && !del[k] {
			return fmt.Errorf("graph: insert of existing edge (%d,%d)", e.Src, e.Dst)
		}
	}
	return nil
}

// load sorts the batch into the scratch buffers: bySrc ordered by
// (src, dst, delete-first) for the out direction, byDst by
// (dst, src, delete-first) for the in direction. Delete-before-insert on the
// same edge makes a weight-change pair merge as remove-then-add. affected
// becomes the sorted union of the batch's sources and destinations: the only
// vertices whose adjacency, and so whose symmetry status, can change.
func (sc *deltaScratch) load(b Batch) {
	sc.bySrc = sc.bySrc[:0]
	for _, e := range b.Deletes {
		sc.bySrc = append(sc.bySrc, edgeOp{e, true})
	}
	for _, e := range b.Inserts {
		sc.bySrc = append(sc.bySrc, edgeOp{e, false})
	}
	sc.byDst = append(sc.byDst[:0], sc.bySrc...)
	// slices.SortFunc, not sort.Slice: the reflect-based swapper allocates on
	// every call, and load runs once per batch on the hot path.
	slices.SortFunc(sc.bySrc, func(x, y edgeOp) int {
		if c := cmpID(x.e.Src, y.e.Src); c != 0 {
			return c
		}
		if c := cmpID(x.e.Dst, y.e.Dst); c != 0 {
			return c
		}
		return cmpDel(x.del, y.del)
	})
	slices.SortFunc(sc.byDst, func(x, y edgeOp) int {
		if c := cmpID(x.e.Dst, y.e.Dst); c != 0 {
			return c
		}
		if c := cmpID(x.e.Src, y.e.Src); c != 0 {
			return c
		}
		return cmpDel(x.del, y.del)
	})
	sc.affected = sc.affected[:0]
	for i, j := 0, 0; i < len(sc.bySrc) || j < len(sc.byDst); {
		var v VertexID
		if j >= len(sc.byDst) || (i < len(sc.bySrc) && sc.bySrc[i].e.Src <= sc.byDst[j].e.Dst) {
			v = sc.bySrc[i].e.Src
		} else {
			v = sc.byDst[j].e.Dst
		}
		sc.affected = append(sc.affected, v)
		for i < len(sc.bySrc) && sc.bySrc[i].e.Src == v {
			i++
		}
		for j < len(sc.byDst) && sc.byDst[j].e.Dst == v {
			j++
		}
	}
}

func cmpID(a, b VertexID) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpDel orders deletes before inserts on an (src,dst) tie.
func cmpDel(x, y bool) int {
	switch {
	case x && !y:
		return -1
	case !x && y:
		return 1
	}
	return 0
}

// tailFits reports whether the tail headroom can take every relocation the
// batch causes in this direction: a vertex whose post-batch degree fits
// neither the inline record nor its segment needs relocCap fresh slots. The
// batch is already validated, so every delete removes exactly one slot and
// every insert adds exactly one.
func (a *adj) tailFits(ops []edgeOp, keyOf func(edgeOp) VertexID, inlCap int) bool {
	need := a.tail
	groupBy(ops, keyOf, func(v VertexID, ops []edgeOp) {
		deg := a.deg(v) + netGrowth(ops)
		if deg > inlCap && deg > int(a.cap[v]) {
			need += uint64(relocCap(deg))
		}
	})
	return need <= uint64(len(a.ids))
}

func netGrowth(ops []edgeOp) int {
	net := 0
	for _, op := range ops {
		if op.del {
			net--
		} else {
			net++
		}
	}
	return net
}

func srcOf(op edgeOp) VertexID { return op.e.Src }
func dstOf(op edgeOp) VertexID { return op.e.Dst }

// countGroups returns the number of distinct keys in a sorted op slice.
func countGroups(ops []edgeOp, keyOf func(edgeOp) VertexID) int {
	n := 0
	for i := 0; i < len(ops); i++ {
		if i == 0 || keyOf(ops[i]) != keyOf(ops[i-1]) {
			n++
		}
	}
	return n
}

// groupBy walks a sorted op slice and calls fn once per distinct key with the
// contiguous group.
func groupBy(ops []edgeOp, keyOf func(edgeOp) VertexID, fn func(VertexID, []edgeOp)) {
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && keyOf(ops[j]) == keyOf(ops[i]) {
			j++
		}
		fn(keyOf(ops[i]), ops[i:j])
		i = j
	}
}

// applyInPlace mutates the shared edge arrays to the post-batch state and
// returns the new head version. The receiver is frozen with undo snapshots of
// every overwritten segment. The batch has been validated and tailFits holds.
func (g *CSR) applyInPlace(cfg DeltaConfig, sc *deltaScratch, edits int) *CSR {
	// Undo snapshots and entry lists come from the scratch arenas: the lists
	// stay contiguous (sized by a group-count pre-pass) so frozen reads can
	// binary-search them, and chunk allocations amortize across batches.
	undoOut := sc.entries.allocOut(countGroups(sc.bySrc, srcOf))
	undoIn := sc.entries.allocIn(countGroups(sc.byDst, dstOf))

	// Reserve the batch's total snapshot footprint up front so the per-vertex
	// arena allocations below never split a batch across chunk switches.
	slabN := 0
	groupBy(sc.bySrc, srcOf, func(v VertexID, _ []edgeOp) { slabN += g.out.deg(v) })
	groupBy(sc.byDst, dstOf, func(v VertexID, _ []edgeOp) { slabN += g.in.deg(v) })
	sc.slab.reserve(slabN)

	// One allocation for the new head: its CSR and versionInfo together. It
	// shares every array with the receiver and owns the layout tallies
	// (inline counts, tail, dead slots) from here on.
	head := &csrWithVer{csr: *g}
	ng := &head.csr
	ng.ver = &head.vi
	head.vi = versionInfo{cfg: cfg, edits: edits, scratch: sc}
	inl := int(g.inlCap)

	// Out direction: snapshot each affected vertex's segment (wherever its
	// representation keeps it), merge it with its sorted updates into scratch,
	// and store back — store picks the post-merge representation, migrating
	// inline↔slab or relocating to the tail when the degree calls for it.
	groupBy(sc.bySrc, srcOf, func(v VertexID, ops []edgeOp) {
		ids, ws := g.out.live(v)

		snapIDs, snapWs := sc.slab.alloc(len(ids))
		copy(snapIDs, ids)
		copy(snapWs, ws)
		undoOut = append(undoOut, outUndo{v: v, dst: snapIDs, w: snapWs, wsum: g.outWeightSum[v]})

		newIDs, newWs := mergeSeg(sc, ids, ws, ops, outNeighbor)
		ng.m += len(newIDs) - len(ids)
		if ng.out.store(v, newIDs, newWs, inl) {
			ng.relocations++
		}
		ng.outWeightSum[v] = segSum(newWs)
	})
	// In direction.
	groupBy(sc.byDst, dstOf, func(v VertexID, ops []edgeOp) {
		ids, ws := g.in.live(v)

		snapIDs, snapWs := sc.slab.alloc(len(ids))
		copy(snapIDs, ids)
		copy(snapWs, ws)
		undoIn = append(undoIn, inUndo{v: v, src: snapIDs, w: snapWs})

		newIDs, newWs := mergeSeg(sc, ids, ws, ops, inNeighbor)
		if ng.in.store(v, newIDs, newWs, inl) {
			ng.relocations++
		}
	})

	// Freeze the receiver in place — its existing versionInfo becomes the
	// frozen record, so pre-batch reads below go through the undo snapshots
	// while post-batch reads hit the mutated arrays. The scratch and rank
	// index move on with the live head; a frozen version never touches them.
	vi := g.ver
	vi.frozen = true
	vi.undoOut = undoOut
	vi.undoIn = undoIn
	vi.next = ng
	vi.edits = 0
	vi.scratch = nil
	vi.cum = nil

	ng.asymCount += asymDelta(g, ng, sc.affected)
	return ng
}

// segSum adds a segment's weights left to right. Both mutation paths and the
// dense build sum in segment order rather than adding a batch's weight delta:
// float addition is order-dependent, and adsorption divides by this sum, so
// an ulp of difference between paths would become visible state divergence.
func segSum(ws []Weight) float64 {
	var sum float64
	for _, w := range ws {
		sum += w
	}
	return sum
}

// asymDelta returns the change in the asymmetric-vertex count between the
// pre-batch version old and the post-batch live head ng: only the affected
// vertices can change status, so each one's pre/post status is diffed.
func asymDelta(old, ng *CSR, affected []VertexID) int {
	d := 0
	for _, v := range affected {
		preOut, _ := old.OutAdj(v)
		preIn, _ := old.InAdj(v)
		postOut, _ := ng.out.live(v)
		postIn, _ := ng.in.live(v)
		pre := !segIDsEqual(preOut, preIn)
		post := !segIDsEqual(postOut, postIn)
		if pre != post {
			if post {
				d++
			} else {
				d--
			}
		}
	}
	return d
}

// outNeighbor and inNeighbor project an op onto the neighbor id for one merge
// direction.
func outNeighbor(op edgeOp) VertexID { return op.e.Dst }
func inNeighbor(op edgeOp) VertexID  { return op.e.Src }

// mergeSeg merges one sorted adjacency segment with its sorted batch ops into
// sc's reusable buffers and returns the merged ids/weights. Validation
// guarantees every delete matches an existing id and no insert duplicates a
// surviving id, so the merge is a plain two-pointer pass.
func mergeSeg(sc *deltaScratch, ids []VertexID, ws []Weight, ops []edgeOp, idOf func(edgeOp) VertexID) ([]VertexID, []Weight) {
	sc.ids = sc.ids[:0]
	sc.ws = sc.ws[:0]
	i, j := 0, 0
	for i < len(ids) || j < len(ops) {
		if j >= len(ops) {
			sc.ids = append(sc.ids, ids[i:]...)
			sc.ws = append(sc.ws, ws[i:]...)
			break
		}
		id := idOf(ops[j])
		if i < len(ids) && ids[i] < id {
			sc.ids = append(sc.ids, ids[i])
			sc.ws = append(sc.ws, ws[i])
			i++
			continue
		}
		if ops[j].del {
			// Validated: the deleted id is present, so ids[i] == id here.
			i++
			j++
			continue
		}
		sc.ids = append(sc.ids, id)
		sc.ws = append(sc.ws, ops[j].e.Weight)
		j++
	}
	return sc.ids, sc.ws
}

// relay lays the post-batch graph out afresh and is the only routine that
// builds a slacked layout: every vertex gets its slack gap, each slab its tail
// headroom, and the (validated, sorted) batch is merged in on the way — the
// live adjacency of an untouched vertex is copied once, straight into its new
// segment. A dense receiver is simply the re-lay of whatever batch arrives
// first. The receiver keeps its own arrays and goes on serving its pre-batch
// edge set without any undo machinery.
func (g *CSR) relay(cfg DeltaConfig, sc *deltaScratch) *CSR {
	if vi := g.ver; vi != nil && !vi.frozen {
		// The scratch — including the rank-index buffer — moves on with the
		// new head. Sever the superseded version's aliases: a cached cum
		// would otherwise be rebuilt in place under it with the new head's
		// degrees, and a later EdgeAt on the old version would rank through
		// the wrong layout. Detached versions build a private index instead.
		vi.cum = nil
		vi.scratch = nil
	}
	inl := min(max(cfg.InlineCap, 0), inlineCapMax)
	ng := &CSR{
		n:            g.n,
		m:            g.m + netGrowth(sc.bySrc),
		outWeightSum: make([]float64, g.n),
		inlCap:       uint8(inl),
		relocations:  g.relocations,
		relayouts:    g.relayouts + 1,
		ver:          &versionInfo{cfg: cfg, scratch: sc},
	}
	// Untouched vertices keep their sum bit for bit; relayAdj recomputes the
	// touched ones left to right over the merged segment.
	for v := range ng.outWeightSum {
		ng.outWeightSum[v] = g.OutWeightSum(VertexID(v))
	}
	ng.out = relayAdj(g.n, g.OutAdj, sc.bySrc, srcOf, outNeighbor, cfg, inl, sc, ng.outWeightSum)
	ng.in = relayAdj(g.n, g.InAdj, sc.byDst, dstOf, inNeighbor, cfg, inl, sc, nil)
	ng.asymCount = g.asymCount + asymDelta(g, ng, sc.affected)
	return ng
}

// relayAdj lays out one direction: seg reads a vertex's current adjacency,
// ops is the batch sorted for this direction. With sums non-nil, the entries
// of vertices the batch touches are recomputed from their merged segment.
func relayAdj(n int, seg func(VertexID) ([]VertexID, []Weight), ops []edgeOp, keyOf, idOf func(edgeOp) VertexID,
	cfg DeltaConfig, inl int, sc *deltaScratch, sums []float64) adj {
	gap := func(deg int) int { return max(int(float64(deg)*cfg.SlackFrac), cfg.SlackMin) }
	a := adj{
		ptr: make([]uint64, n+1),
		cap: make([]uint32, n),
		len: make([]uint32, n),
	}
	if inl > 0 {
		a.inl = make([]inlineRec, n)
	}
	// Pass 1: post-batch degrees fix every segment's start and capacity.
	j := 0
	for v := 0; v < n; v++ {
		ids, _ := seg(VertexID(v))
		deg := len(ids)
		for ; j < len(ops) && keyOf(ops[j]) == VertexID(v); j++ {
			if ops[j].del {
				deg--
			} else {
				deg++
			}
		}
		a.len[v] = uint32(deg)
		a.cap[v] = uint32(deg + gap(deg))
		a.ptr[v+1] = a.ptr[v] + uint64(a.cap[v])
	}
	a.tail = a.ptr[n]
	slots := a.tail + uint64(gap(int(a.tail)))
	a.ids = make([]VertexID, slots)
	a.ws = make([]Weight, slots)
	// Pass 2: copy or merge every adjacency into its representation. A
	// low-degree vertex goes into its inline record and leaves its (still
	// reserved) slab segment empty.
	j = 0
	for v := 0; v < n; v++ {
		ids, ws := seg(VertexID(v))
		k := j
		for j < len(ops) && keyOf(ops[j]) == VertexID(v) {
			j++
		}
		if j > k {
			ids, ws = mergeSeg(sc, ids, ws, ops[k:j], idOf)
			if sums != nil {
				sums[v] = segSum(ws)
			}
		}
		if a.inl != nil {
			r := &a.inl[v]
			if len(ids) <= inl {
				r.n = uint8(copy(r.ids[:], ids))
				copy(r.ws[:], ws)
				a.len[v] = 0
				a.inline++
				continue
			}
			r.n = inlineSpilled
		}
		copy(a.ids[a.ptr[v]:], ids)
		copy(a.ws[a.ptr[v]:], ws)
	}
	return a
}
