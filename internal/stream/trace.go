// Package stream generates streaming-update workloads: batched edge
// insertions and deletions against an evolving graph, following the paper's
// experimental setup ("batches of 100K edge updates. Each batch contains 70%
// insertions and 30% deletions of edges", §6.2).
package stream

import (
	"math/rand"

	"jetstream/internal/graph"
)

// Config parameterizes a batch generator.
type Config struct {
	// BatchSize is the number of edge updates per batch.
	BatchSize int
	// InsertFrac is the fraction of updates that are insertions (0.7 in the
	// paper's baseline; Fig 14 sweeps it).
	InsertFrac float64
	// MaxWeight bounds inserted edge weights (uniform in [1, MaxWeight]).
	MaxWeight float64
	// Symmetric mirrors every update so the graph stays undirected (needed
	// for Connected Components). The mirrored directions count toward
	// BatchSize.
	Symmetric bool
	// Locality, when > 0, draws most inserted edges near their source in
	// vertex-id (crawl) order — the realistic update pattern for the
	// web-crawl topology class, where new links are overwhelmingly
	// site-local. Uniform random insertions into a long-diameter graph act
	// as global shortcuts that restructure the whole result, which no real
	// crawl delta does.
	Locality int
	Seed     int64
}

// Generator draws successive batches against the current graph version.
// Batches are deterministic for a given seed and sequence of graphs.
type Generator struct {
	cfg Config
	rng *rand.Rand
}

// NewGenerator returns a generator for cfg, drawing from a private generator
// seeded with cfg.Seed.
func NewGenerator(cfg Config) *Generator {
	if cfg.MaxWeight <= 0 {
		cfg.MaxWeight = 64
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next draws a batch valid against g: deletions name existing edges,
// insertions name absent pairs, and no (src,dst) pair appears twice.
func (gen *Generator) Next(g *graph.CSR) graph.Batch {
	if gen.cfg.Symmetric {
		return gen.nextSymmetric(g)
	}
	n := g.NumVertices()
	e := g.NumEdges()
	wantIns := int(float64(gen.cfg.BatchSize)*gen.cfg.InsertFrac + 0.5)
	wantDel := gen.cfg.BatchSize - wantIns
	if wantDel > e/2 {
		wantDel = e / 2 // never drain the graph
	}

	type key struct{ u, v graph.VertexID }
	used := make(map[key]bool, gen.cfg.BatchSize)
	var b graph.Batch

	for tries := 0; len(b.Deletes) < wantDel && tries < wantDel*64; tries++ {
		ed := g.EdgeAt(gen.rng.Intn(e))
		k := key{ed.Src, ed.Dst}
		if used[k] {
			continue
		}
		used[k] = true
		b.Deletes = append(b.Deletes, ed)
	}
	for tries := 0; len(b.Inserts) < wantIns && tries < wantIns*64; tries++ {
		u := graph.VertexID(gen.rng.Intn(n))
		v := gen.insertTarget(u, n)
		if v == u {
			continue
		}
		k := key{u, v}
		if used[k] {
			continue
		}
		if _, ok := g.HasEdge(u, v); ok {
			continue
		}
		used[k] = true
		b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, Weight: 1 + gen.rng.Float64()*(gen.cfg.MaxWeight-1)})
	}
	return b
}

// insertTarget picks the destination for an inserted edge from u: uniform by
// default, or mostly crawl-local when Locality is set.
func (gen *Generator) insertTarget(u graph.VertexID, n int) graph.VertexID {
	if gen.cfg.Locality <= 0 || gen.rng.Float64() < 0.15 {
		return graph.VertexID(gen.rng.Intn(n))
	}
	off := 1 + gen.rng.Intn(2*gen.cfg.Locality)
	v := int(u) - gen.cfg.Locality + off
	if v < 0 || v >= n {
		return graph.VertexID(gen.rng.Intn(n))
	}
	return graph.VertexID(v)
}

// nextSymmetric draws undirected updates: each logical update contributes
// both directions, keeping a symmetrized graph symmetric.
func (gen *Generator) nextSymmetric(g *graph.CSR) graph.Batch {
	n := g.NumVertices()
	e := g.NumEdges()
	pairs := gen.cfg.BatchSize / 2
	wantIns := int(float64(pairs)*gen.cfg.InsertFrac + 0.5)
	wantDel := pairs - wantIns
	if wantDel > e/4 {
		wantDel = e / 4
	}

	type key struct{ u, v graph.VertexID }
	norm := func(u, v graph.VertexID) key {
		if u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	used := make(map[key]bool, pairs)
	var b graph.Batch

	for tries := 0; len(b.Deletes) < 2*wantDel && tries < wantDel*128; tries++ {
		ed := g.EdgeAt(gen.rng.Intn(e))
		k := norm(ed.Src, ed.Dst)
		if used[k] {
			continue
		}
		// Both directions must exist (symmetric graph invariant).
		w2, ok := g.HasEdge(ed.Dst, ed.Src)
		if !ok {
			continue
		}
		used[k] = true
		b.Deletes = append(b.Deletes,
			graph.Edge{Src: ed.Src, Dst: ed.Dst, Weight: ed.Weight},
			graph.Edge{Src: ed.Dst, Dst: ed.Src, Weight: w2})
	}
	for tries := 0; len(b.Inserts) < 2*wantIns && tries < wantIns*128; tries++ {
		u := graph.VertexID(gen.rng.Intn(n))
		v := graph.VertexID(gen.rng.Intn(n))
		if u == v {
			continue
		}
		k := norm(u, v)
		if used[k] {
			continue
		}
		if _, ok := g.HasEdge(u, v); ok {
			continue
		}
		if _, ok := g.HasEdge(v, u); ok {
			continue
		}
		used[k] = true
		w := 1 + gen.rng.Float64()*(gen.cfg.MaxWeight-1)
		b.Inserts = append(b.Inserts,
			graph.Edge{Src: u, Dst: v, Weight: w},
			graph.Edge{Src: v, Dst: u, Weight: w})
	}
	return b
}
