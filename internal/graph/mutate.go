package graph

import (
	"fmt"
	"sort"
)

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

// Apply produces the next graph version G+Δ as a fresh CSR, the way the
// paper's host processor writes a new CSR and swaps the pointer (§4.7).
// Deletions must name existing edges; insertions must not duplicate
// surviving edges. The receiver is unchanged.
func (g *CSR) Apply(b Batch) (*CSR, error) {
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
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].Src != ins[j].Src {
			return ins[i].Src < ins[j].Src
		}
		return ins[i].Dst < ins[j].Dst
	})
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
	// Merge the (sorted) surviving edges with the (sorted) insertions in one
	// linear pass; batches are tiny next to the graph, so rebuilding must
	// not pay an O(E log E) sort.
	es := make([]Edge, 0, g.NumEdges()+len(ins)-len(b.Deletes))
	i := 0
	for u := 0; u < g.n; u++ {
		src := VertexID(u)
		g.OutEdges(src, func(dst VertexID, w Weight) {
			for i < len(ins) && (ins[i].Src < src || (ins[i].Src == src && ins[i].Dst < dst)) {
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

// MustApply is Apply for known-valid batches.
func (g *CSR) MustApply(b Batch) *CSR {
	ng, err := g.Apply(b)
	if err != nil {
		panic(err)
	}
	return ng
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
