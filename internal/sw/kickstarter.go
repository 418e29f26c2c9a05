package sw

import (
	"fmt"

	"jetstream/internal/algo"
	"jetstream/internal/graph"
)

// KickStarter re-implements the trimming-based incremental computation of
// Vora et al. for monotonic (selective) algorithms, the paper's software
// comparator for SSSP/SSWP/BFS/CC. It is a synchronous (BSP) system:
//
//   - Deletions conservatively tag the target of *every* deleted edge (the
//     batch is processed concurrently, so targets cannot cheaply be proven
//     safe individually) — this is why its trimmed-set sizes track the
//     deletion count in Fig 10, usually exceeding JetStream's source-exact
//     DAP resets.
//   - Tagged vertices are re-approximated by re-reading their whole
//     in-neighborhoods (the random-read storm §3.4 calls out); vertices
//     whose value actually regresses cascade the trimming to their recorded
//     dependence children.
//   - Reevaluation runs BSP push iterations with atomic relaxations and a
//     synchronization barrier per iteration.
//
// The implementation is operationally real — tests validate its results
// against the reference solvers after every batch — and its operation counts
// feed the CPU cost model.
type KickStarter struct {
	cpu CPUConfig
	alg algo.Algorithm
	g   *graph.CSR

	value []float64
	// parent records, per vertex, the contributor whose push set the current
	// value — the dependence-tree edge. Deletion tagging walks this tree.
	// (A pure value-match closure would be sound too, but floods equal-value
	// plateaus — whole components for CC; dependence levels, the other
	// classic choice, go stale on bottleneck-valued algorithms like SSWP
	// where a support's value can change without re-triggering dependents.)
	parent []graph.VertexID

	cost  Cost
	total Cost

	// LastResets is the number of vertices reset by the latest batch
	// (Fig 10's metric).
	LastResets int
}

// NewKickStarter builds the framework for a selective algorithm.
func NewKickStarter(g *graph.CSR, a algo.Algorithm, cpu CPUConfig) (*KickStarter, error) {
	if a.Class() != algo.Selective {
		return nil, fmt.Errorf("sw: KickStarter supports selective algorithms, not %s", a.Name())
	}
	k := &KickStarter{cpu: cpu, alg: a, g: g}
	k.value = make([]float64, g.NumVertices())
	k.parent = make([]graph.VertexID, g.NumVertices())
	return k, nil
}

// noParent marks vertices whose value has no recorded contributor (Identity
// or an initial-event seed).
const noParent = graph.VertexID(1<<32 - 1)

// Graph returns the current graph version.
func (k *KickStarter) Graph() *graph.CSR { return k.g }

// Values returns the live result vector.
func (k *KickStarter) Values() []float64 { return k.value }

// TotalCost returns accumulated operation counts.
func (k *KickStarter) TotalCost() Cost { return k.total }

// RunInitial computes the query from scratch with BSP push iterations.
// Returns the estimated wall-clock seconds.
func (k *KickStarter) RunInitial() float64 {
	k.cost = Cost{Batches: 1}
	for v := range k.value {
		k.value[v] = k.alg.Identity()
		k.parent[v] = noParent
	}
	var frontier []graph.VertexID
	for v := 0; v < k.g.NumVertices(); v++ {
		if seed, ok := k.alg.InitialEventFor(graph.VertexID(v), k.g); ok {
			k.value[v] = seed
			frontier = append(frontier, graph.VertexID(v))
		}
	}
	k.cost.SeqLines += uint64(k.g.NumVertices() / 8)
	k.bsp(frontier)
	sec := k.cost.Seconds(k.cpu)
	k.total.Add(k.cost)
	return sec
}

// ApplyBatch incrementally updates the results for g+b and returns the
// estimated seconds for the batch.
func (k *KickStarter) ApplyBatch(b graph.Batch) (float64, error) {
	ng, err := k.g.Apply(b)
	if err != nil {
		return 0, err
	}
	k.cost = Cost{Batches: 1}

	// --- Value-aware trimming. ---------------------------------------------
	// Every deletion target is tagged unconditionally: the batch is
	// processed concurrently and a target cannot cheaply be proven safe up
	// front, so KickStarter conservatively trims all of them (its Fig 10
	// reset counts track the deletion count). Each tagged vertex is
	// re-approximated from *safe* in-neighbors — vertices not currently
	// awaiting re-approximation; such contributions are achievable in the
	// new graph, so trimmed values never over-progress. Only a vertex whose
	// value actually regresses cascades the tag to its recorded dependence
	// children.
	tagged := make(map[graph.VertexID]bool)
	inWork := make(map[graph.VertexID]bool)
	orig := make(map[graph.VertexID]float64)
	var work, discovery []graph.VertexID

	push := func(v graph.VertexID) {
		if inWork[v] {
			return
		}
		if !tagged[v] {
			tagged[v] = true
			orig[v] = k.value[v]
			discovery = append(discovery, v)
		}
		inWork[v] = true
		work = append(work, v)
	}

	for _, de := range b.Deletes {
		k.cost.RandomReads += 2 // read endpoint states
		k.cost.Ops++
		push(de.Dst)
	}

	// Trimming runs against the new structure: deleted edges must not
	// contribute to re-approximations.
	k.g = ng

	guard := 50*k.g.NumVertices() + 100
	for len(work) > 0 && guard > 0 {
		guard--
		v := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[v] = false
		prev := k.value[v]

		best := k.alg.Identity()
		par := noParent
		if seed, ok := k.alg.InitialEventFor(v, k.g); ok {
			best = seed
		}
		// Two irregular reads per in-neighbor: value plus degree/weight
		// metadata (the random-read storm §3.4 calls out).
		k.cost.RandomReads += 2*uint64(k.g.InDegree(v)) + 1
		k.g.InEdges(v, func(u graph.VertexID, w graph.Weight) {
			k.cost.Ops++
			if inWork[u] {
				return // unsafe: u may still depend on a deleted edge
			}
			cand := k.alg.Propagate(u, k.value[u], w, k.g.OutDegree(u), k.g.OutWeightSum(u))
			if r := k.alg.Reduce(best, cand); r != best {
				best = r
				par = u
			}
		})
		if best == prev {
			k.parent[v] = par
			continue // value survives via an alternate support
		}
		k.value[v] = best
		k.parent[v] = par
		k.cost.Atomics++
		if k.alg.Reduce(prev, best) == prev {
			// Regressed: recorded dependence children must be re-examined.
			k.cost.RandomReads += 2 * uint64(k.g.OutDegree(v))
			k.g.OutEdges(v, func(w graph.VertexID, _ graph.Weight) {
				k.cost.Ops++
				if k.parent[w] == v {
					push(w)
				}
			})
		}
	}
	if guard == 0 {
		// Pathological oscillation: fall back to the sound full reset of
		// every tagged vertex and of its whole dependence subtree. Trimming
		// stopped early, so an untagged child may still hold a value that
		// only a reset vertex supported.
		for i := 0; i < len(discovery); i++ {
			v := discovery[i]
			k.cost.RandomReads += 2 * uint64(k.g.OutDegree(v))
			k.g.OutEdges(v, func(w graph.VertexID, _ graph.Weight) {
				if k.parent[w] == v && !tagged[w] {
					tagged[w] = true
					discovery = append(discovery, w)
				}
			})
		}
		for _, v := range discovery {
			k.value[v] = k.alg.Identity()
			k.parent[v] = noParent
		}
	}
	k.LastResets = len(tagged)

	// --- Final safe approximation + BSP reevaluation. -----------------------
	// Vertices whose value changed get one full pull over their current
	// in-neighborhood (all values are safe now — interior vertices may have
	// skipped in-work neighbors during trimming), then synchronous push
	// iterations propagate the remaining corrections with a barrier per
	// round.
	var frontier []graph.VertexID
	for _, v := range discovery { // discovery order keeps runs deterministic
		if k.value[v] != orig[v] || guard == 0 {
			k.pull(v)
			frontier = append(frontier, v)
		}
	}
	for _, e := range b.Inserts {
		k.cost.RandomReads += 2
		k.cost.Atomics++
		cand := k.alg.Propagate(e.Src, k.value[e.Src], e.Weight,
			ng.OutDegree(e.Src), ng.OutWeightSum(e.Src))
		if k.improve(e.Dst, cand, e.Src) {
			frontier = append(frontier, e.Dst)
		}
	}
	k.bsp(frontier)

	sec := k.cost.Seconds(k.cpu)
	k.total.Add(k.cost)
	return sec, nil
}

// pull rebuilds v's value from its full current in-neighborhood and its
// initial event; used for the final safe approximation.
func (k *KickStarter) pull(v graph.VertexID) {
	best := k.alg.Identity()
	par := noParent
	if seed, ok := k.alg.InitialEventFor(v, k.g); ok {
		best = seed
	}
	k.cost.RandomReads += 2*uint64(k.g.InDegree(v)) + 1
	k.g.InEdges(v, func(u graph.VertexID, w graph.Weight) {
		k.cost.Ops++
		cand := k.alg.Propagate(u, k.value[u], w, k.g.OutDegree(u), k.g.OutWeightSum(u))
		if r := k.alg.Reduce(best, cand); r != best {
			best = r
			par = u
		}
	})
	k.value[v] = best
	k.parent[v] = par
	k.cost.Atomics++
}

// improve applies a candidate contribution to w; reports whether it won,
// recording the contributor as w's dependence parent.
func (k *KickStarter) improve(w graph.VertexID, cand float64, from graph.VertexID) bool {
	if r := k.alg.Reduce(k.value[w], cand); r != k.value[w] {
		k.value[w] = r
		k.parent[w] = from
		return true
	}
	return false
}

// bsp runs synchronous push iterations until the frontier drains, one
// barrier per iteration.
func (k *KickStarter) bsp(frontier []graph.VertexID) {
	inNext := make(map[graph.VertexID]bool)
	for len(frontier) > 0 {
		k.cost.Barriers++
		var next []graph.VertexID
		for _, v := range frontier {
			deg := k.g.OutDegree(v)
			wsum := k.g.OutWeightSum(v)
			// Each relaxation reads the target's value before the atomic
			// update: two irregular accesses per out-edge.
			k.cost.RandomReads += 2*uint64(deg) + 1
			k.g.OutEdges(v, func(w graph.VertexID, ew graph.Weight) {
				k.cost.Atomics++
				cand := k.alg.Propagate(v, k.value[v], ew, deg, wsum)
				if k.improve(w, cand, v) && !inNext[w] {
					inNext[w] = true
					next = append(next, w)
				}
			})
		}
		frontier = next
		for w := range inNext {
			delete(inNext, w)
		}
	}
}
