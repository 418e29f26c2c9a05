package graph

import (
	"fmt"
	"sort"
)

// Build constructs a CSR over n vertices from an edge list. Duplicate (src,
// dst) pairs are an error: the streaming model treats the pair as the edge's
// identity (a weight change is a delete followed by an insert, paper §2.1).
// Self-loops are permitted; endpoints must be < n. Weights obey a batch
// insert's rule: an edge list holding a NaN, infinite or non-positive weight
// is refused with an error wrapping a *BatchError of IssueBadWeight issues.
func Build(n int, edges []Edge) (*CSR, error) {
	var bad []Edge
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, n)
		}
		if badWeight(e.Weight) {
			bad = append(bad, e)
		}
	}
	if bad != nil {
		return nil, weightError(bad)
	}
	es := append([]Edge(nil), edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
	for i := 1; i < len(es); i++ {
		if es[i].Src == es[i-1].Src && es[i].Dst == es[i-1].Dst {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", es[i].Src, es[i].Dst)
		}
	}
	return buildSorted(n, es), nil
}

// MustBuild is Build for known-good inputs (generators, tests).
func MustBuild(n int, edges []Edge) *CSR {
	g, err := Build(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// buildSorted builds from edges already sorted by (src, dst) and deduplicated.
func buildSorted(n int, es []Edge) *CSR {
	g := &CSR{
		n: n,
		m: len(es),
		out: adj{
			ptr: make([]uint64, n+1),
			ids: make([]VertexID, len(es)),
			ws:  make([]Weight, len(es)),
		},
		in: adj{
			ptr: make([]uint64, n+1),
			ids: make([]VertexID, len(es)),
			ws:  make([]Weight, len(es)),
		},
		outWeightSum: make([]float64, n),
	}
	for _, e := range es {
		g.out.ptr[e.Src+1]++
		g.in.ptr[e.Dst+1]++
		g.outWeightSum[e.Src] += e.Weight
	}
	for v := 0; v < n; v++ {
		g.out.ptr[v+1] += g.out.ptr[v]
		g.in.ptr[v+1] += g.in.ptr[v]
	}
	for i, e := range es {
		g.out.ids[i] = e.Dst
		g.out.ws[i] = e.Weight
	}
	// Fill the in-index with a counting pass; a per-vertex cursor tracks the
	// next free slot. Sources arrive in sorted order because es is sorted by
	// src, so each in-adjacency ends up sorted by source automatically.
	cursor := make([]uint64, n)
	copy(cursor, g.in.ptr[:n])
	for _, e := range es {
		i := cursor[e.Dst]
		g.in.ids[i] = e.Src
		g.in.ws[i] = e.Weight
		cursor[e.Dst]++
	}
	// Symmetry count: the edge set is closed under reversal iff every vertex's
	// out-neighbor list equals its in-neighbor list — both are sorted here
	// (es is sorted by src then dst, and the in-index fill above preserves
	// source order), so an elementwise compare decides it in O(V+E). The full
	// per-vertex count (not just a bit) lets the delta mutation layer maintain
	// symmetry incrementally: a batch only changes the asymmetric-vertex count
	// at the vertices it touches.
	for v := 0; v < n; v++ {
		lo, hi := g.out.ptr[v], g.out.ptr[v+1]
		ilo, ihi := g.in.ptr[v], g.in.ptr[v+1]
		if !segIDsEqual(g.out.ids[lo:hi], g.in.ids[ilo:ihi]) {
			g.asymCount++
		}
	}
	return g
}

// Merge returns g+b as a fresh dense CSR, built by one linear merge of g's
// edges with b's two lists, which must be in (src, dst) order as Fold
// returns them; a weight change is the pair in both lists. It neither
// sorts the batch nor probes a delete set per edge: the three sorted
// sequences are walked side by side, so the cost is O(V + E + |b|). A batch
// that does not apply to g — a delete of a missing edge, an insert of a
// surviving one, a list out of order or out of range — is refused with an
// error. g is unchanged.
func Merge(g *CSR, b Batch) (*CSR, error) {
	ins, del := b.Inserts, b.Deletes
	es := make([]Edge, 0, max(0, g.m+len(ins)-len(del)))
	var last Edge // the previous insert, for the order check
	emit := func() error {
		e := ins[0]
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			return fmt.Errorf("graph: merge: insert (%d,%d) out of range", e.Src, e.Dst)
		}
		if len(ins) < len(b.Inserts) && !edgeLess(last, e) {
			return fmt.Errorf("graph: merge: insert (%d,%d) out of (src, dst) order", e.Src, e.Dst)
		}
		es, last, ins = append(es, e), e, ins[1:]
		return nil
	}
	for u := 0; u < g.n; u++ {
		src := VertexID(u)
		ids, ws := g.OutAdj(src)
		for k, dst := range ids {
			cur := Edge{Src: src, Dst: dst}
			for len(ins) > 0 && edgeLess(ins[0], cur) {
				if err := emit(); err != nil {
					return nil, err
				}
			}
			if len(del) > 0 && del[0].Src == src && del[0].Dst == dst {
				del = del[1:]
				continue
			}
			if len(del) > 0 && edgeLess(del[0], cur) {
				return nil, fmt.Errorf("graph: merge: delete of missing edge (%d,%d)", del[0].Src, del[0].Dst)
			}
			if len(ins) > 0 && ins[0].Src == src && ins[0].Dst == dst {
				return nil, fmt.Errorf("graph: merge: insert of existing edge (%d,%d)", src, dst)
			}
			es = append(es, Edge{Src: src, Dst: dst, Weight: ws[k]})
		}
	}
	if len(del) > 0 {
		return nil, fmt.Errorf("graph: merge: delete of missing edge (%d,%d)", del[0].Src, del[0].Dst)
	}
	for len(ins) > 0 {
		if err := emit(); err != nil {
			return nil, err
		}
	}
	return buildSorted(g.n, es), nil
}

// edgeLess orders edges by (src, dst).
func edgeLess(a, b Edge) bool {
	return a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst)
}

// Symmetrize returns a graph with every edge mirrored (u,v) and (v,u) with
// the same weight. Connected Components interprets the graph as undirected;
// the engines propagate along out-edges only, so CC workloads are symmetrized
// first. Existing reverse edges keep their weight. The missing reverse edges
// are read off each vertex's in-adjacency — already in (src, dst) order —
// skipping the ids its out-adjacency holds, and merged into g in one pass.
func Symmetrize(g *CSR) *CSR {
	var mirror []Edge
	for v := 0; v < g.n; v++ {
		src := VertexID(v)
		outs, _ := g.OutAdj(src)
		ins, ws := g.InAdj(src)
		for k, u := range ins {
			outs = outs[searchID(outs, u):]
			if len(outs) == 0 || outs[0] != u {
				mirror = append(mirror, Edge{Src: src, Dst: u, Weight: ws[k]})
			}
		}
	}
	ng, err := Merge(g, Batch{Inserts: mirror})
	if err != nil {
		panic(err) // unreachable: every insert is in range, absent and in order
	}
	return ng
}
