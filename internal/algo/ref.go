package algo

import (
	"container/heap"
	"math"

	"jetstream/internal/graph"
)

// This file holds golden reference solvers, used only by tests and the
// experiment harness to validate that the streaming engines converge to the
// same fixpoint as a from-scratch conventional computation on the mutated
// graph. None of the engines call into these.

// Reference computes the converged state of a on g from scratch with a
// conventional (non-event-driven) solver.
func Reference(a Algorithm, g *graph.CSR) []float64 {
	switch alg := a.(type) {
	case *SSSP:
		return Dijkstra(g, alg.Root)
	case *SSWP:
		return WidestPath(g, alg.Root)
	case *BFS:
		return BFSLevels(g, alg.Root)
	case *WCC:
		return UnionFindLabels(g)
	case *CC:
		return CCLabels(g)
	case *PageRank:
		return PageRankRef(g, alg.Alpha, alg.Eps/10)
	case *Adsorption:
		return AdsorptionRef(g, alg.Inj, alg.Cont, alg.Eps/10)
	default:
		panic("algo: no reference solver for " + a.Name())
	}
}

type pqItem struct {
	v    graph.VertexID
	prio float64
}

// pq is a binary heap; better reports whether x should pop before y.
type pq struct {
	items  []pqItem
	better func(x, y float64) bool
}

func (p *pq) Len() int           { return len(p.items) }
func (p *pq) Less(i, j int) bool { return p.better(p.items[i].prio, p.items[j].prio) }
func (p *pq) Swap(i, j int)      { p.items[i], p.items[j] = p.items[j], p.items[i] }
func (p *pq) Push(x interface{}) { p.items = append(p.items, x.(pqItem)) }
func (p *pq) Pop() (x interface{}) {
	x = p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	return x
}

// Dijkstra returns shortest-path distances from root (+Inf if unreachable).
func Dijkstra(g *graph.CSR, root graph.VertexID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	q := &pq{better: func(x, y float64) bool { return x < y }}
	heap.Push(q, pqItem{root, 0})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.prio > dist[it.v] {
			continue
		}
		g.OutEdges(it.v, func(dst graph.VertexID, w graph.Weight) {
			if d := it.prio + w; d < dist[dst] {
				dist[dst] = d
				heap.Push(q, pqItem{dst, d})
			}
		})
	}
	return dist
}

// WidestPath returns the maximum bottleneck width from root to each vertex
// (0 if unreachable; the root itself is +Inf).
func WidestPath(g *graph.CSR, root graph.VertexID) []float64 {
	width := make([]float64, g.NumVertices())
	width[root] = math.Inf(1)
	q := &pq{better: func(x, y float64) bool { return x > y }}
	heap.Push(q, pqItem{root, math.Inf(1)})
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.prio < width[it.v] {
			continue
		}
		g.OutEdges(it.v, func(dst graph.VertexID, w graph.Weight) {
			if b := math.Min(it.prio, w); b > width[dst] {
				width[dst] = b
				heap.Push(q, pqItem{dst, b})
			}
		})
	}
	return width
}

// BFSLevels returns hop counts from root (+Inf if unreachable).
func BFSLevels(g *graph.CSR, root graph.VertexID) []float64 {
	lvl := make([]float64, g.NumVertices())
	for i := range lvl {
		lvl[i] = math.Inf(1)
	}
	lvl[root] = 0
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.OutEdges(u, func(v graph.VertexID, _ graph.Weight) {
			if math.IsInf(lvl[v], 1) {
				lvl[v] = lvl[u] + 1
				queue = append(queue, v)
			}
		})
	}
	return lvl
}

// CCLabels returns the minimum reachable vertex id per vertex, treating the
// (assumed symmetric) graph as undirected.
func CCLabels(g *graph.CSR) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	for i := range label {
		label[i] = -1
	}
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		// s is the smallest unvisited id, hence the component's label.
		label[s] = float64(s)
		stack := []graph.VertexID{graph.VertexID(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.OutEdges(u, func(v graph.VertexID, _ graph.Weight) {
				if label[v] < 0 {
					label[v] = float64(s)
					stack = append(stack, v)
				}
			})
		}
	}
	return label
}

// UnionFindLabels is the rebuild-on-expiry oracle for the windowed
// connected-components kernel: components are re-derived cold by union-find
// over exactly the edges present in the graph (for a windowed system, exactly
// the in-window edges), and each vertex is labeled with the minimum vertex id
// of its component. On a symmetric graph this agrees with CCLabels; union-find
// is used here because a from-scratch rebuild per window slide is the
// semantics being pinned — a component split by an aged-out bridge must fall
// apart, which no incremental label raise can express.
func UnionFindLabels(g *graph.CSR) []float64 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for i, m := 0, g.NumEdges(); i < m; i++ {
		e := g.EdgeAt(i)
		ru, rv := find(int32(e.Src)), find(int32(e.Dst))
		if ru != rv {
			if ru < rv { // union by min id keeps the root the label-holder
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	label := make([]float64, n)
	for v := 0; v < n; v++ {
		label[v] = float64(find(int32(v)))
	}
	return label
}

// PageRankRef iterates PR(v) = alpha + (1-alpha) * sum PR(u)/outdeg(u) to a
// fixpoint (max per-vertex change < tol).
func PageRankRef(g *graph.CSR, alpha, tol float64) []float64 {
	n := g.NumVertices()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = alpha
	}
	for iter := 0; iter < 10000; iter++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			g.InEdges(graph.VertexID(v), func(u graph.VertexID, _ graph.Weight) {
				sum += pr[u] / float64(g.OutDegree(u))
			})
			next[v] = alpha + (1-alpha)*sum
		}
		delta := 0.0
		for v := range pr {
			delta = math.Max(delta, math.Abs(next[v]-pr[v]))
		}
		pr, next = next, pr
		if delta < tol {
			break
		}
	}
	return pr
}

// AdsorptionRef iterates a(v) = inj + cont * sum w(u,v)/outWSum(u) * a(u).
func AdsorptionRef(g *graph.CSR, inj, cont, tol float64) []float64 {
	n := g.NumVertices()
	a := make([]float64, n)
	next := make([]float64, n)
	for i := range a {
		a[i] = inj
	}
	for iter := 0; iter < 10000; iter++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			g.InEdges(graph.VertexID(v), func(u graph.VertexID, w graph.Weight) {
				sum += a[u] * w / g.OutWeightSum(u)
			})
			next[v] = inj + cont*sum
		}
		delta := 0.0
		for v := range a {
			delta = math.Max(delta, math.Abs(next[v]-a[v]))
		}
		a, next = next, a
		if delta < tol {
			break
		}
	}
	return a
}

// MaxAbsDiff returns the largest |a[i]-b[i]|, treating equal infinities as
// zero difference and a NaN on either side as an infinite one. Tests use it
// to compare engine output with references.
func MaxAbsDiff(a, b []float64) float64 { return MaxAbsDiffStride(a, b, 1) }

// MaxAbsDiffStride is MaxAbsDiff over every stride-th index (stride >= 1).
func MaxAbsDiffStride(a, b []float64, stride int) float64 {
	max := 0.0
	for i := 0; i < len(a); i += stride {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return math.Inf(1)
		}
		if math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
			if a[i] != b[i] {
				return math.Inf(1)
			}
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
