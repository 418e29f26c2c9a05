package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
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
}

// DefaultDeltaConfig returns the tuning used by the system hot path.
func DefaultDeltaConfig() DeltaConfig {
	return DeltaConfig{SlackMin: 4, SlackFrac: 0.125, CompactFrac: 0.25}
}

// direction indexes the per-direction halves of a version's undo state.
type direction uint8

const (
	outDir direction = iota
	inDir
)

func (g *CSR) adj(d direction) *adj {
	if d == outDir {
		return &g.out
	}
	return &g.in
}

// segOp is one batch update seen from one of its endpoints: the adjacency of
// vertex v gains or loses neighbor id. In the out direction v is the edge's
// source and id its destination, in the in direction the other way round, so
// every routine below serves both directions without knowing which it has.
// A weight change is a (delete, insert) pair on one (v, id); del keeps the two
// apart and the ordering puts the delete first.
type segOp struct {
	v, id VertexID
	w     Weight
	idx   uint32 // position in the batch as loaded: deletes, then inserts, each in batch order
	del   bool
}

func (op *segOp) key(byV bool) VertexID {
	if byV {
		return op.v
	}
	return op.id
}

// undoRec is what a superseded version keeps of one vertex the batch that
// superseded it touched, in one direction: the batch's ops on the vertex —
// deletes carrying the weight the edge was stored with — not a copy of the
// adjacency. The adjacency is rebuilt from the next version's by taking the
// ops back, the first time a reader asks, and served from seg from then on.
// Records are filled in place and never copied (seg is an atomic).
type undoRec struct {
	ops  []segOp // ordered by (id, delete first)
	deg  uint32  // pre-batch degree
	wsum float64 // pre-batch outWeightSum (out direction)
	seg  atomic.Pointer[segment]
}

// segment is a rebuilt pre-batch adjacency.
type segment struct {
	ids []VertexID
	ws  []Weight
}

// undoDir is one direction of a frozen version's undo state: the vertices the
// superseding batch touched, ascending, and their records.
type undoDir struct {
	vs   []VertexID
	recs []undoRec // parallel to vs
}

func (u *undoDir) find(v VertexID) *undoRec {
	if i := searchID(u.vs, v); i < len(u.vs) && u.vs[i] == v {
		return &u.recs[i]
	}
	return nil
}

// versionInfo is the delta-mutation bookkeeping hung off a CSR.
//
// On the live head of a mutation chain (frozen == false) it carries the
// config, the edits-since-re-lay counter, reusable scratch buffers, and the
// lazy EdgeAt rank index. When the head is superseded in place by ApplyDelta,
// it is frozen where it stands: undo keeps what the batch did to each vertex
// it touched, and next links to the version that replaced it, so reads take
// the batch back for those vertices and walk forward for all others.
type versionInfo struct {
	cfg    DeltaConfig
	frozen bool
	undo   [2]undoDir
	next   *CSR
	arena  segArena // rebuilt segments of this (frozen) version

	// rebuilt counts the segments rebuilt for old-version reads anywhere along
	// the chain (LayoutStats.UndoRebuilt). Readers of superseded versions bump
	// it long after the head has moved on, so the chain shares one counter.
	rebuilt *atomic.Uint64

	edits   int // in-place updates applied since the last re-lay
	scratch *deltaScratch
	cum     []uint64 // lazy EdgeAt rank index; nil until first use
}

// at walks the chain from g to the version that answers for v's adjacency in
// direction d: a frozen version holding an undo record for v (returned with
// the record), or — nil record — the version whose arrays are authoritative.
func (g *CSR) at(v VertexID, d direction) (*CSR, *undoRec) {
	for cur := g; ; cur = cur.ver.next {
		vi := cur.ver
		if vi == nil || !vi.frozen {
			return cur, nil
		}
		if r := vi.undo[d].find(v); r != nil {
			return cur, r
		}
	}
}

// adjOf returns v's adjacency in direction d as version g observes it.
func (g *CSR) adjOf(v VertexID, d direction) ([]VertexID, []Weight) {
	cur, r := g.at(v, d)
	if r == nil {
		return cur.adj(d).live(v)
	}
	return cur.ver.segment(r, v, d)
}

// segment returns the pre-batch adjacency r stands for, rebuilding it on
// first use: the next version's adjacency (itself rebuilt if that version has
// been superseded too) with r's ops taken back. Any number of readers may ask
// at once — a compute phase fanned out over a superseded version does — so
// the result is published through an atomic pointer; a reader that loses the
// race drops its copy and serves the winner's.
func (vi *versionInfo) segment(r *undoRec, v VertexID, d direction) ([]VertexID, []Weight) {
	if s := r.seg.Load(); s != nil {
		return s.ids, s.ws
	}
	ids, ws := vi.next.adjOf(v, d)
	s := vi.arena.alloc(int(r.deg))
	s.ids, s.ws = mergeSeg(s.ids, s.ws, ids, ws, r.ops, true)
	if r.seg.CompareAndSwap(nil, s) {
		vi.rebuilt.Add(1)
	} else {
		s = r.seg.Load()
	}
	return s.ids, s.ws
}

// segArena chunk-allocates the segments a frozen version rebuilds, so a
// rebuild costs a fraction of an allocation instead of three. The chunks
// belong to the version and die with it.
type segArena struct {
	mu   sync.Mutex
	segs []segment
	ids  []VertexID
	ws   []Weight
}

func (a *segArena) alloc(n int) *segment {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &carve(&a.segs, 1, max(2*cap(a.segs), 32))[0]
	s.ids = carve(&a.ids, n, max(2*cap(a.ids), 1024))[:0]
	s.ws = carve(&a.ws, n, max(2*cap(a.ws), 1024))[:0]
	return s
}

// carve hands out the next n elements of *chunk. Chunks are append-only: a
// sub-slice handed out is never overwritten, and when the next request does
// not fit, the chunk is dropped for a fresh one of max(n, grow) elements — the
// garbage collector reclaims it with the last version referencing it.
func carve[T any](chunk *[]T, n, grow int) []T {
	if len(*chunk)+n > cap(*chunk) {
		*chunk = make([]T, 0, max(n, grow))
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+n]
	return (*chunk)[i : i+n : i+n]
}

// csrWithVer bundles a head CSR with its versionInfo so the steady-state
// in-place path allocates exactly one object per batch (what the superseded
// version keeps comes from the scratch's chunks, amortized across batches).
type csrWithVer struct {
	csr CSR
	vi  versionInfo
}

// deltaScratch holds buffers reused across batches so steady-state in-place
// application allocates only the head object; the undo state old versions
// retain is carved from chunks whose allocations amortize away.
type deltaScratch struct {
	out, in  []segOp    // the batch ordered for each direction
	tmp      []segOp    // radix ping-pong buffer
	verdict  []uint8    // audit result per op, by segOp.idx: 0 valid, else IssueKind+1
	ids      []VertexID // merge buffer: neighbor ids
	ws       []Weight   // merge buffer: weights
	affected []VertexID // vertices whose adjacency changed this batch
	asym     []bool     // pre-batch symmetry status, parallel to affected
	cumBuf   []uint64   // backing array for the live head's rank index

	// Chunks the undo state of superseded versions is carved from.
	undoVs   []VertexID
	undoRecs []undoRec
	undoOps  []segOp
}

// undoChunk sizes a fresh undo chunk for a batch needing n elements (both
// directions together): four batches' worth, so the three chunks cost under
// one allocation per batch between them. A chunk stays pinned until the last
// version carved from it dies, so larger chunks buy fewer allocations with
// resident memory: at eight batches' worth the two durable-bulk tenants of
// benchmark/ peak 3 MB (9 %) higher.
func undoChunk(n int) int { return max(4*n, 1<<10) }

// sized returns buf with length n, regrown with headroom when it is short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// hostScratch returns the scratch of the chain g heads, or a fresh one when g
// heads none (a dense build, a superseded version).
func (g *CSR) hostScratch() *deltaScratch {
	if vi := g.ver; vi != nil && !vi.frozen && vi.scratch != nil {
		return vi.scratch
	}
	return &deltaScratch{}
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
			cum[v+1] = cum[v] + uint64(g.out.deg(VertexID(v)))
		}
		vi.cum = cum
	}
	return vi.cum
}

// ApplyDelta produces the next graph version G+Δ like Apply, but its cost
// follows the batch, not the degrees of the vertices it lands on: a vertex
// whose segment still fits is edited where it lies (editSeg: binary searches
// plus the slots that actually shift), a vertex that outgrows its gap is
// merged and relocated into the tail headroom, and outWeightSum, the edge
// count and the symmetry count are maintained incrementally. Time is
// O(|Δ|·log d + slots shifted) — plus one read of each touched out-adjacency
// for its weight sum — and memory O(|Δ|) per batch instead of O(V+E).
//
// The versioned pointer-swap contract is preserved: the receiver continues to
// serve its exact pre-batch edge set (the recovery engine reads the old and
// new versions simultaneously during a batch). Physically the edge arrays are
// shared along the version chain; the receiver keeps the batch's ops per
// touched vertex and rebuilds a pre-batch adjacency only when a reader asks
// for it (versionInfo.segment), so a superseded version nobody reads costs
// O(|Δ|) and a read costs one binary search plus, the first time, the
// segment. ApplyDelta must not race with readers of any version in the
// chain; the single-threaded host mutation path is the intended writer, and
// engine phases only run between mutations. Readers of superseded versions
// may run concurrently with each other.
//
// ApplyDelta re-lays the whole graph (relay) only when measured waste says
// so — in-place edits plus dead slots past the configured threshold, or the
// tail headroom cannot take this batch's relocations — or when the receiver
// has no mutable slacked layout to edit (a dense build, a superseded
// version). Validation errors match Apply's.
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
	sc := g.hostScratch()
	edits := 0
	if live && g.ver != nil {
		edits = g.ver.edits
	}
	sc.order(b)
	if g.audit(sc, false) > 0 {
		return nil, sc.rejection(b)
	}
	sc.mirror()
	edits += b.Size()
	if live && g.out.len != nil &&
		edits+g.out.dead+g.in.dead <= compactThreshold(cfg, g.m) &&
		g.out.tailFits(sc.out) && g.in.tailFits(sc.in) {
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

// order loads b into sc.out — deletes ahead of inserts, each in batch order —
// and sorts it by (source, destination). The radix passes are stable, so on a
// tie the delete stays ahead of the insert (a weight-change pair applies as
// remove-then-add) and duplicates stay in batch order (the audit keeps the
// first).
func (sc *deltaScratch) order(b Batch) {
	n := b.Size()
	sc.out, sc.tmp = sized(sc.out, n), sized(sc.tmp, n)
	nd := len(b.Deletes)
	for i, e := range b.Deletes {
		sc.out[i] = segOp{v: e.Src, id: e.Dst, w: e.Weight, idx: uint32(i), del: true}
	}
	for i, e := range b.Inserts {
		sc.out[nd+i] = segOp{v: e.Src, id: e.Dst, w: e.Weight, idx: uint32(nd + i)}
	}
	sc.out, sc.tmp = radixSort(sc.out, sc.tmp, false)
	sc.out, sc.tmp = radixSort(sc.out, sc.tmp, true)
}

// mirror derives the in-direction list from the ordered out list — endpoints
// swapped, then stable-sorted by the new owner, which leaves it ordered by
// (destination, source, delete first) — and collects affected, the sorted
// union of the batch's sources and destinations: the only vertices whose
// adjacency, and so whose symmetry status, can change.
func (sc *deltaScratch) mirror() {
	sc.in = sized(sc.in, len(sc.out))
	for i, op := range sc.out {
		op.v, op.id = op.id, op.v
		sc.in[i] = op
	}
	sc.in, sc.tmp = radixSort(sc.in, sc.tmp, true)
	sc.affected = sc.affected[:0]
	for i, j := 0, 0; i < len(sc.out) || j < len(sc.in); {
		var v VertexID
		if j >= len(sc.in) || (i < len(sc.out) && sc.out[i].v <= sc.in[j].v) {
			v = sc.out[i].v
		} else {
			v = sc.in[j].v
		}
		sc.affected = append(sc.affected, v)
		for i < len(sc.out) && sc.out[i].v == v {
			i++
		}
		for j < len(sc.in) && sc.in[j].v == v {
			j++
		}
	}
}

// radixSort stable-sorts ops by owner (byV) or by neighbor id with one
// counting pass per byte of the largest key present, ping-ponging between
// ops and tmp (equal lengths). It returns the sorted slice and the spare one.
// No comparison callback runs: a batch is ordered in a few linear sweeps.
func radixSort(ops, tmp []segOp, byV bool) (sorted, spare []segOp) {
	var top VertexID
	for i := range ops {
		top |= ops[i].key(byV)
	}
	for shift := uint(0); shift < 32 && top>>shift != 0; shift += 8 {
		var next [256]uint32
		for i := range ops {
			next[uint8(ops[i].key(byV)>>shift)]++
		}
		sum := uint32(0)
		for b := range next {
			next[b], sum = sum, sum+next[b]
		}
		for i := range ops {
			b := uint8(ops[i].key(byV) >> shift)
			tmp[next[b]] = ops[i]
			next[b]++
		}
		ops, tmp = tmp, ops
	}
	return ops, tmp
}

// audit checks the ordered batch in sc.out against g. It is the package's one
// statement of the batch rules (Apply, ApplyDelta and SanitizeBatch all run
// it; the tests hold it against map-based references): endpoints in range; a delete names an existing edge; an insert names an
// absent one, unless the batch also deletes it (a weight change); no pair
// twice among the deletes or among the inserts; and, with weights set — the
// ingest boundary's rule, Apply and ApplyDelta take any weight — insert
// weights finite and positive. In the ordered list the ops on one (src,dst)
// are neighbours, deletes first, each kind in batch order, and existence is
// one binary search per pair into an adjacency fetched once per source, so no
// set is built. An op that breaks a rule gets its IssueKind+1 in sc.verdict at
// its batch position, and the first of several equal pairs is the one kept;
// every delete that stands has its weight replaced by the stored one, which
// is what a superseded version must hand back when the delete is undone.
// Returns the number of invalid ops.
func (g *CSR) audit(sc *deltaScratch, weights bool) (bad int) {
	ops := sc.out
	sc.verdict = sized(sc.verdict, len(ops))
	clear(sc.verdict)
	for i := 0; i < len(ops); {
		v := ops[i].v
		var ids []VertexID
		var ws []Weight
		if int(v) < g.n {
			ids, ws = g.OutAdj(v)
		}
		for from := 0; i < len(ops) && ops[i].v == v; {
			id := ops[i].id
			inRange := int(v) < g.n && int(id) < g.n
			exists := false
			if inRange {
				from += searchID(ids[from:], id)
				exists = from < len(ids) && ids[from] == id
			}
			keptDel, keptIns := false, false
			for ; i < len(ops) && ops[i].v == v && ops[i].id == id; i++ {
				op := &ops[i]
				var issue IssueKind
				switch {
				case !inRange:
					issue = IssueOutOfRange
				case op.del && keptDel:
					issue = IssueDuplicate
				case op.del && !exists:
					issue = IssueMissingDelete
				case op.del:
					keptDel = true
					op.w = ws[from]
					continue
				case weights && badWeight(op.w):
					issue = IssueBadWeight
				case keptIns:
					issue = IssueDuplicate
				case exists && !keptDel:
					issue = IssueExistingInsert
				default:
					keptIns = true
					continue
				}
				sc.verdict[op.idx] = uint8(issue) + 1
				bad++
			}
		}
	}
	return bad
}

// rejection words the first invalid op of an audited batch for Apply and
// ApplyDelta: the deletes in batch order (with no range rule for them — an
// out-of-range delete is a missing edge), then the inserts in (src,dst)
// order.
func (sc *deltaScratch) rejection(b Batch) error {
	for i, e := range b.Deletes {
		switch sc.verdict[i] {
		case 0:
		case uint8(IssueDuplicate) + 1:
			return fmt.Errorf("graph: duplicate delete of (%d,%d)", e.Src, e.Dst)
		default:
			return fmt.Errorf("graph: delete of missing edge (%d,%d)", e.Src, e.Dst)
		}
	}
	for _, op := range sc.out {
		if op.del {
			continue
		}
		switch sc.verdict[op.idx] {
		case 0:
		case uint8(IssueOutOfRange) + 1:
			return fmt.Errorf("graph: insert (%d,%d) out of range", op.v, op.id)
		case uint8(IssueDuplicate) + 1:
			return fmt.Errorf("graph: duplicate insert of (%d,%d)", op.v, op.id)
		default:
			return fmt.Errorf("graph: insert of existing edge (%d,%d)", op.v, op.id)
		}
	}
	return nil
}

// searchID returns the first index of the sorted ids holding a value >= id —
// the one binary search of the package, a plain loop so that the hot callers
// (HasEdge, the audit, the in-place edit, undo lookups) pay for no func value.
func searchID(ids []VertexID, id VertexID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// groupEnd returns the end of the run of ops on ops[i]'s vertex.
func groupEnd(ops []segOp, i int) int {
	j := i + 1
	for j < len(ops) && ops[j].v == ops[i].v {
		j++
	}
	return j
}

// countGroups returns the number of distinct vertices in an ordered op list.
func countGroups(ops []segOp) int {
	n := 0
	for i := range ops {
		if i == 0 || ops[i].v != ops[i-1].v {
			n++
		}
	}
	return n
}

func netGrowth(ops []segOp) int {
	net := 0
	for i := range ops {
		if ops[i].del {
			net--
		} else {
			net++
		}
	}
	return net
}

// tailFits reports whether the tail headroom can take every relocation the
// batch causes in this direction: a vertex whose post-batch degree does not
// fit its segment needs relocCap fresh slots. The batch is already validated,
// so every delete removes exactly one slot and every insert adds exactly one.
func (a *adj) tailFits(ops []segOp) bool {
	need := a.tail
	for i := 0; i < len(ops); {
		j := groupEnd(ops, i)
		v := ops[i].v
		deg := a.deg(v) + netGrowth(ops[i:j])
		if deg > int(a.cap[v]) {
			need += uint64(relocCap(deg))
		}
		i = j
	}
	return need <= uint64(len(a.ids))
}

// editInPlace lets a test route every vertex through mergeSeg → store, to hold
// the in-place edit against the path it replaced. Nothing else assigns it:
// which path a vertex takes is decided by its degree against its capacity.
var editInPlace = true

// applyInPlace mutates the shared edge arrays to the post-batch state and
// returns the new head version. The receiver is frozen with the batch's ops
// as its undo state. The batch has been validated and tailFits holds.
func (g *CSR) applyInPlace(cfg DeltaConfig, sc *deltaScratch, edits int) *CSR {
	// Pre-batch symmetry status comes from the live arrays before anything
	// moves: the in-place path never reads the old version it is creating.
	sc.markAsym(g)

	// One allocation for the new head: its CSR and versionInfo together. It
	// shares every array with the receiver and owns the layout tallies
	// (tail, dead slots) from here on.
	head := &csrWithVer{csr: *g}
	ng := &head.csr
	ng.ver = &head.vi
	vi := g.ver
	head.vi = versionInfo{cfg: cfg, edits: edits, scratch: sc, rebuilt: vi.rebuilt}
	ng.m += netGrowth(sc.out)

	// What the receiver keeps of the batch, both directions carved together:
	// one undo record per touched vertex, and a copy of the ordered ops the
	// records point into (the scratch lists are reused by the next batch).
	nOut, nOps := countGroups(sc.out), len(sc.out)
	n := nOut + countGroups(sc.in)
	vs := carve(&sc.undoVs, n, undoChunk(n))
	recs := carve(&sc.undoRecs, n, undoChunk(n))
	kept := carve(&sc.undoOps, 2*nOps, undoChunk(2*nOps))
	copy(kept, sc.out)
	copy(kept[nOps:], sc.in)
	vi.undo[outDir] = undoDir{vs: vs[:nOut], recs: recs[:nOut]}
	vi.undo[inDir] = undoDir{vs: vs[nOut:], recs: recs[nOut:]}
	ng.relocations += ng.out.applyOps(sc, sc.out, kept[:nOps], vi.undo[outDir], ng.outWeightSum)
	ng.relocations += ng.in.applyOps(sc, sc.in, kept[nOps:], vi.undo[inDir], nil)
	ng.undoRecords += uint64(n)

	// Freeze the receiver in place — its existing versionInfo becomes the
	// frozen record, so pre-batch reads take the batch back while post-batch
	// reads hit the mutated arrays. The scratch and rank index move on with
	// the live head; a frozen version never touches them.
	vi.frozen = true
	vi.next = ng
	vi.edits = 0
	vi.scratch = nil
	vi.cum = nil

	ng.asymCount += sc.asymDelta(ng)
	return ng
}

// applyOps applies one direction's ordered ops to the live layout and fills in
// u, the undo state the superseded version keeps for it: per touched vertex
// its ops (kept is the version's own copy of ops), the pre-batch degree and
// (with sums, the out direction) the pre-batch weight sum, which is then
// recomputed from the new segment. Returns the number of segments relocated.
//
// A vertex whose post-batch degree still fits its capacity is edited inside
// its segment; one that outgrows it moves to the tail through mergeSeg →
// store.
func (a *adj) applyOps(sc *deltaScratch, ops, kept []segOp, u undoDir, sums []float64) (relocated uint64) {
	for i, k := 0, 0; i < len(ops); k++ {
		j := groupEnd(ops, i)
		v := ops[i].v
		deg := a.deg(v)
		post := deg + netGrowth(ops[i:j])
		u.vs[k] = v
		r := &u.recs[k]
		r.ops = kept[i:j]
		r.deg = uint32(deg)
		if sums != nil {
			r.wsum = sums[v]
		}
		if editInPlace && post <= int(a.cap[v]) {
			lo, hi := a.ptr[v], a.ptr[v]+uint64(a.cap[v])
			a.len[v] = uint32(editSeg(a.ids[lo:hi], a.ws[lo:hi], deg, ops[i:j]))
		} else {
			ids, ws := a.live(v)
			sc.ids, sc.ws = mergeSeg(sc.ids[:0], sc.ws[:0], ids, ws, ops[i:j], false)
			if a.store(v, sc.ids, sc.ws) {
				relocated++
			}
		}
		if sums != nil {
			_, ws := a.live(v)
			sums[v] = segSum(ws)
		}
		i = j
	}
	return relocated
}

// store writes v's post-merge adjacency into its slab segment. A vertex that
// has outgrown its segment is relocated: it takes relocCap slots from the tail
// headroom (the caller has checked they are there) and its old slots are
// counted dead — nothing else moves, and no version can still read the old
// slots, because the batch that relocates a vertex also leaves its ops in the
// superseded version's undo record, which rebuilds from the next version's
// adjacency wherever that lives. Reports whether v was relocated. The ids/ws
// arguments must not alias the destination (callers pass the merge scratch).
func (a *adj) store(v VertexID, ids []VertexID, ws []Weight) (relocated bool) {
	if len(ids) > int(a.cap[v]) {
		a.dead += int(a.cap[v])
		a.ptr[v] = a.tail
		a.cap[v] = relocCap(len(ids))
		a.tail += uint64(a.cap[v])
		relocated = true
	}
	lo := a.ptr[v]
	copy(a.ids[lo:], ids)
	copy(a.ws[lo:], ws)
	a.len[v] = uint32(len(ids))
	return relocated
}

// relocCap is the capacity a relocated segment of deg edges receives: room to
// double before it has to move again.
func relocCap(deg int) uint32 { return uint32(2 * deg) }

// editSeg applies one vertex's ops to its slab segment where it lies. ids and
// ws span the segment's capacity, of which the first n slots are used; ops
// are ordered by (id, delete first) and valid against the segment, and the
// caller has checked that the result fits. Deletes compact the segment
// forward from the first deleted slot, inserts then merge in from the back,
// a delete+insert pair on one id overwrites the slot's weight: nothing before
// the first touched slot moves, no slot moves more than twice, and no copy of
// the segment exists. Returns the new used length; the contents equal what
// mergeSeg produces for the same input.
func editSeg(ids []VertexID, ws []Weight, n int, ops []segOp) int {
	// Deletes. Slots [r, p) between two deleted positions slide down to the
	// write cursor w; from bounds the next search, the ops being ascending.
	w, r, from := n, n, 0
	add := 0
	for j := 0; j < len(ops); j++ {
		if !ops[j].del {
			add++
			continue
		}
		p := from + searchID(ids[from:n], ops[j].id)
		from = p + 1
		if j+1 < len(ops) && ops[j+1].id == ops[j].id {
			j++
			ws[p] = ops[j].w
			continue
		}
		if w == n {
			w = p
		} else {
			copy(ids[w:], ids[r:p])
			copy(ws[w:], ws[r:p])
			w += p - r
		}
		r = p + 1
	}
	if w < n {
		copy(ids[w:], ids[r:n])
		copy(ws[w:], ws[r:n])
		n = w + n - r
	}
	// Inserts, last first: the slots behind each insert position move up to
	// their final place in one copy, and the op takes the slot they free.
	end, dst := n, n+add
	for j := len(ops) - 1; dst > end; j-- {
		if ops[j].del {
			continue
		}
		if j > 0 && ops[j-1].del && ops[j-1].id == ops[j].id {
			j--
			continue
		}
		p := searchID(ids[:end], ops[j].id)
		dst -= end - p
		copy(ids[dst:], ids[p:end])
		copy(ws[dst:], ws[p:end])
		dst--
		ids[dst], ws[dst] = ops[j].id, ops[j].w
		end = p
	}
	return n + add
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

// markAsym records, for every affected vertex, whether its out- and
// in-neighbor ids differ in g — the pre-batch half of the symmetry count's
// maintenance. It must run before g's arrays are edited.
func (sc *deltaScratch) markAsym(g *CSR) {
	sc.asym = sc.asym[:0]
	for _, v := range sc.affected {
		out, _ := g.OutAdj(v)
		in, _ := g.InAdj(v)
		sc.asym = append(sc.asym, !segIDsEqual(out, in))
	}
}

// asymDelta returns the change in the asymmetric-vertex count from the
// statuses markAsym recorded to the post-batch live head ng: only the
// affected vertices can change status.
func (sc *deltaScratch) asymDelta(ng *CSR) int {
	d := 0
	for k, v := range sc.affected {
		out, _ := ng.out.live(v)
		in, _ := ng.in.live(v)
		if post := !segIDsEqual(out, in); post != sc.asym[k] {
			if post {
				d++
			} else {
				d--
			}
		}
	}
	return d
}

// mergeSeg merges one sorted adjacency with its ordered ops, appending the
// result to dstIDs/dstWs (which must not alias the inputs). Validation
// guarantees every delete matches an existing id and no insert duplicates a
// surviving id, so the merge is a plain two-pointer pass. With undo set the
// ops are taken back instead of applied — an insert removes its id, a delete
// restores id and stored weight — which turns a post-batch adjacency into the
// pre-batch one.
func mergeSeg(dstIDs []VertexID, dstWs []Weight, ids []VertexID, ws []Weight, ops []segOp, undo bool) ([]VertexID, []Weight) {
	i, j := 0, 0
	for i < len(ids) || j < len(ops) {
		if j >= len(ops) {
			dstIDs = append(dstIDs, ids[i:]...)
			dstWs = append(dstWs, ws[i:]...)
			break
		}
		id := ops[j].id
		if i < len(ids) && ids[i] < id {
			dstIDs = append(dstIDs, ids[i])
			dstWs = append(dstWs, ws[i])
			i++
			continue
		}
		if ops[j].del != undo {
			// Validated: the id to remove is present, so ids[i] == id here.
			i++
			j++
			continue
		}
		dstIDs = append(dstIDs, id)
		dstWs = append(dstWs, ops[j].w)
		j++
	}
	return dstIDs, dstWs
}

// relay lays the post-batch graph out afresh and is the only routine that
// builds a slacked layout: every vertex gets its slack gap, each slab its tail
// headroom, and the (validated, ordered) batch is merged in on the way — the
// live adjacency of an untouched vertex is copied once, straight into its new
// segment. A dense receiver is simply the re-lay of whatever batch arrives
// first. The receiver keeps its own arrays and goes on serving its pre-batch
// edge set without any undo machinery.
func (g *CSR) relay(cfg DeltaConfig, sc *deltaScratch) *CSR {
	rebuilt := new(atomic.Uint64)
	// A graph heading no chain (a dense build, a superseded version) ordered
	// this batch in fresh buffers sized to it alone; the new chain starts
	// with empty ones rather than pin them. A recovery's folded log tail is
	// such a batch.
	kept := &deltaScratch{}
	if vi := g.ver; vi != nil {
		rebuilt = vi.rebuilt
		if !vi.frozen {
			// The scratch — including the rank-index buffer — moves on with the
			// new head. Sever the superseded version's aliases: a cached cum
			// would otherwise be rebuilt in place under it with the new head's
			// degrees, and a later EdgeAt on the old version would rank through
			// the wrong layout. Detached versions build a private index instead.
			vi.cum = nil
			vi.scratch = nil
			kept = sc
		}
	}
	ng := &CSR{
		n:            g.n,
		m:            g.m + netGrowth(sc.out),
		outWeightSum: make([]float64, g.n),
		relocations:  g.relocations,
		relayouts:    g.relayouts + 1,
		undoRecords:  g.undoRecords,
		ver:          &versionInfo{cfg: cfg, scratch: kept, rebuilt: rebuilt},
	}
	// Untouched vertices keep their sum bit for bit; relayAdj recomputes the
	// touched ones left to right over the merged segment.
	for v := range ng.outWeightSum {
		ng.outWeightSum[v] = g.OutWeightSum(VertexID(v))
	}
	sc.markAsym(g)
	ng.out = relayAdj(g.n, g.OutAdj, sc.out, cfg, sc, ng.outWeightSum)
	ng.in = relayAdj(g.n, g.InAdj, sc.in, cfg, sc, nil)
	ng.asymCount = g.asymCount + sc.asymDelta(ng)
	return ng
}

// relayAdj lays out one direction: seg reads a vertex's current adjacency,
// ops is the batch ordered for this direction. With sums non-nil, the entries
// of vertices the batch touches are recomputed from their merged segment.
func relayAdj(n int, seg func(VertexID) ([]VertexID, []Weight), ops []segOp,
	cfg DeltaConfig, sc *deltaScratch, sums []float64) adj {
	gap := func(deg int) int { return max(int(float64(deg)*cfg.SlackFrac), cfg.SlackMin) }
	a := adj{
		ptr: make([]uint64, n+1),
		cap: make([]uint32, n),
		len: make([]uint32, n),
	}
	// Pass 1: post-batch degrees fix every segment's start and capacity.
	j := 0
	for v := 0; v < n; v++ {
		ids, _ := seg(VertexID(v))
		deg := len(ids)
		for ; j < len(ops) && ops[j].v == VertexID(v); j++ {
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
	// Pass 2: copy or merge every adjacency into its segment.
	j = 0
	for v := 0; v < n; v++ {
		ids, ws := seg(VertexID(v))
		k := j
		for j < len(ops) && ops[j].v == VertexID(v) {
			j++
		}
		if j > k {
			sc.ids, sc.ws = mergeSeg(sc.ids[:0], sc.ws[:0], ids, ws, ops[k:j], false)
			ids, ws = sc.ids, sc.ws
			if sums != nil {
				sums[v] = segSum(ws)
			}
		}
		copy(a.ids[a.ptr[v]:], ids)
		copy(a.ws[a.ptr[v]:], ws)
	}
	return a
}
