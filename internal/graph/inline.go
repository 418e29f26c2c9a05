package graph

import (
	"unsafe"

	"jetstream/internal/pad"
)

// inlineCapMax is the hard ceiling on inline neighbors per direction: the
// record below fits exactly one cache line with four id/weight pairs, so a
// low-degree vertex resolves its whole adjacency with a single line fill and
// zero pointer chases. DeltaConfig.InlineCap may choose any value in
// [0, inlineCapMax]; 0 disables the adaptive layout entirely.
const inlineCapMax = 4

// inlineSpilled marks a vertex whose adjacency lives in the slack slab — the
// record is a tombstone and the slab segment [ptr[v], ptr[v]+len[v]) is
// authoritative. Any n ≤ inlineCapMax means the record itself is
// authoritative and the vertex's slab slots are idle (but still reserved: a
// re-lay sizes the slab identically with or without inline records, which
// is what makes inline↔slab migration an in-place copy in either direction
// and keeps EdgeOffset — the timing model's address base — layout-invariant).
const inlineSpilled = 0xFF

// inlineRec is one vertex's inline adjacency for one direction: up to
// inlineCapMax (id, weight) pairs plus the used count, padded to exactly one
// cache line so two vertices' records never share a line and one record
// never straddles two.
type inlineRec struct {
	ids [inlineCapMax]VertexID // 16 bytes
	ws  [inlineCapMax]Weight   // 32 bytes
	n   uint8                  // used count, or inlineSpilled
	_   [15]byte
}

// Compile-time: an inlineRec is exactly one cache line (see internal/pad).
const (
	_ = uint(pad.LineSize - unsafe.Sizeof(inlineRec{}))
	_ = uint(unsafe.Sizeof(inlineRec{}) - pad.LineSize)
)

// live returns v's adjacency as stored by the live layout: the inline record
// when the vertex is inline, the slab segment otherwise. Callers must hold a
// live (unfrozen) version — frozen versions read through their undo records
// in OutAdj/InAdj. The returned slices alias the graph's storage.
func (a *adj) live(v VertexID) ([]VertexID, []Weight) {
	if a.inl != nil {
		r := &a.inl[v]
		if r.n != inlineSpilled {
			return r.ids[:r.n], r.ws[:r.n]
		}
	}
	lo := a.ptr[v]
	hi := a.ptr[v+1]
	if a.len != nil {
		hi = lo + uint64(a.len[v])
	}
	return a.ids[lo:hi], a.ws[lo:hi]
}

// deg returns v's logical degree on the live layout. With inline records,
// len[v] is zero for inline vertices, so degree questions must go through
// here rather than reading len directly.
func (a *adj) deg(v VertexID) int {
	if a.inl != nil {
		if n := a.inl[v].n; n != inlineSpilled {
			return int(n)
		}
	}
	if a.len != nil {
		return int(a.len[v])
	}
	return int(a.ptr[v+1] - a.ptr[v])
}

// store writes v's post-merge adjacency into whichever representation now
// fits: the inline record when the new degree is at most inlCap, the slab
// segment otherwise. Inline↔slab migration is a plain copy, because every
// vertex keeps a slab segment reserved while it is inline. A spilled vertex
// that has outgrown its segment is relocated: it takes relocCap slots from
// the tail headroom (the caller has checked they are there) and its old slots
// are counted dead — nothing else moves, and no version can still read the
// old slots, because the batch that relocates a vertex also leaves its ops in
// the superseded version's undo record, which rebuilds from the next
// version's adjacency wherever that lives. Reports whether v was relocated.
// The ids/ws arguments must not alias the destination (callers pass the merge
// scratch).
func (a *adj) store(v VertexID, ids []VertexID, ws []Weight, inlCap int) (relocated bool) {
	if a.inl != nil && len(ids) <= inlCap {
		r := &a.inl[v]
		if r.n == inlineSpilled {
			a.inline++
		}
		r.n = uint8(copy(r.ids[:], ids))
		copy(r.ws[:], ws)
		a.len[v] = 0
		return false
	}
	if a.inl != nil && a.inl[v].n != inlineSpilled {
		a.inl[v].n = inlineSpilled
		a.inline--
	}
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

// RepresentationMix reports how many vertices are currently stored inline in
// each direction, plus the vertex count. All zeros (with n > 0) means the
// layout is uniform slab/dense. Only meaningful on a live head; the
// observability layer samples it after each batch.
func (g *CSR) RepresentationMix() (outInline, inInline, n int) {
	return g.out.inline, g.in.inline, g.n
}

// InlineCap returns the layout's inline capacity (0 when the adaptive layout
// is off).
func (g *CSR) InlineCap() int { return int(g.inlCap) }
