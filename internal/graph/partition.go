package graph

import "sort"

// Partition assigns each vertex to one of k slices. GraphPulse/JetStream
// slice graphs whose event queue footprint exceeds on-chip capacity and
// process one slice at a time, spilling cross-slice events to DRAM (§4.7).
// The paper uses PuLP; this greedy BFS-grown partitioner serves the same
// purpose — balanced slices with a reduced edge cut — without the external
// dependency.
type Partition struct {
	K     int
	Slice []int // vertex -> slice index
	Cut   int   // number of cross-slice edges
}

// PartitionGraph splits g into k balanced slices. k must be >= 1. Slices are
// grown breadth-first from the highest-degree unassigned seed so that
// communities tend to land together, which is what keeps the cut low on the
// social-network generators.
func PartitionGraph(g *CSR, k int) *Partition {
	n := g.NumVertices()
	p := &Partition{K: k, Slice: make([]int, n)}
	if k <= 1 {
		return p
	}
	target := (n + k - 1) / k
	for i := range p.Slice {
		p.Slice[i] = -1
	}
	// Seeds in decreasing total-degree order.
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di := g.OutDegree(order[i]) + g.InDegree(order[i])
		dj := g.OutDegree(order[j]) + g.InDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	next := 0
	queue := make([]VertexID, 0, target)
	for s := 0; s < k; s++ {
		size := 0
		queue = queue[:0]
		for size < target {
			if len(queue) == 0 {
				// Find the next unassigned seed.
				for next < n && p.Slice[order[next]] != -1 {
					next++
				}
				if next == n {
					break
				}
				queue = append(queue, order[next])
			}
			v := queue[0]
			queue = queue[1:]
			if p.Slice[v] != -1 {
				continue
			}
			p.Slice[v] = s
			size++
			g.OutEdges(v, func(dst VertexID, _ Weight) {
				if p.Slice[dst] == -1 {
					queue = append(queue, dst)
				}
			})
			g.InEdges(v, func(src VertexID, _ Weight) {
				if p.Slice[src] == -1 {
					queue = append(queue, src)
				}
			})
		}
	}
	// Any stragglers (k*target >= n guarantees few) go to the last slice.
	for v := 0; v < n; v++ {
		if p.Slice[v] == -1 {
			p.Slice[v] = k - 1
		}
	}
	for u := 0; u < n; u++ {
		g.OutEdges(VertexID(u), func(dst VertexID, _ Weight) {
			if p.Slice[u] != p.Slice[dst] {
				p.Cut++
			}
		})
	}
	return p
}

// SliceOf returns v's slice.
func (p *Partition) SliceOf(v VertexID) int {
	if p.K <= 1 {
		return 0
	}
	return p.Slice[v]
}
