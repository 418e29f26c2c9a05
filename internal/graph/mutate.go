package graph

// Batch is one streaming update batch: edges to insert and edges to delete.
// Per the paper's model (§2.1), a weight modification appears as the edge in
// both lists (delete old, insert new), and a vertex addition is implied by
// the first edge that references it (the CSR is sized up front, so "addition"
// means a previously isolated vertex gains its first edge).
type Batch struct {
	Inserts []Edge
	Deletes []Edge
}

// Size returns the total number of updates in the batch.
func (b *Batch) Size() int { return len(b.Inserts) + len(b.Deletes) }

// Apply produces the next graph version G+Δ as a fresh dense CSR, the way the
// paper's host processor writes a new CSR and swaps the pointer (§4.7): the
// batch is ordered and audited as ApplyDelta does, then merged with g's edges
// in one linear pass. Deletions must name existing edges; insertions must not
// duplicate surviving edges. The receiver is unchanged.
func (g *CSR) Apply(b Batch) (*CSR, error) {
	sc := &deltaScratch{}
	sc.order(b)
	if g.audit(sc, false) > 0 {
		return nil, sc.rejection(b)
	}
	net := Batch{Inserts: make([]Edge, 0, len(b.Inserts)), Deletes: make([]Edge, 0, len(b.Deletes))}
	for _, op := range sc.out {
		e := Edge{Src: op.v, Dst: op.id, Weight: op.w}
		if op.del {
			net.Deletes = append(net.Deletes, e)
		} else {
			net.Inserts = append(net.Inserts, e)
		}
	}
	return Merge(g, net)
}

// View is a read-only overlay over a CSR that suppresses the out-edges of a
// set of masked vertices. Accumulative deletion (paper Fig 5, Algorithm 6)
// runs a compute phase on an "intermediate" graph in which every vertex with
// a mutated out-edge becomes a complete sink; the paper notes this is cheap
// because it only adjusts edge-list pointers. View reproduces that: masking
// costs O(1) per vertex and no edge storage is copied.
type View struct {
	*CSR
	masked []bool
}

// NewView wraps g with no vertices masked.
func NewView(g *CSR) *View {
	return &View{CSR: g, masked: make([]bool, g.NumVertices())}
}

// Mask turns u into a sink: OutAdj(u) is empty and OutDegree(u) is 0.
func (v *View) Mask(u VertexID) { v.masked[u] = true }

// OutAdj respects the mask: a masked vertex has no out-adjacency.
func (v *View) OutAdj(u VertexID) ([]VertexID, []Weight) {
	if v.masked[u] {
		return nil, nil
	}
	return v.CSR.OutAdj(u)
}

// OutEdges yields u's out-edges unless u is masked.
func (v *View) OutEdges(u VertexID, fn func(dst VertexID, w Weight)) {
	if !v.masked[u] {
		v.CSR.OutEdges(u, fn)
	}
}

// OutDegree respects the mask.
func (v *View) OutDegree(u VertexID) int {
	if v.masked[u] {
		return 0
	}
	return v.CSR.OutDegree(u)
}
