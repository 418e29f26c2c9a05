package stream

import (
	"fmt"
	"math/rand"

	"jetstream/internal/graph"
)

// ShapeKind selects an adversarial stream shape: a workload engineered to
// stress one corner of the infinite-window machinery rather than to look like
// a realistic crawl delta. Each shape is deterministic for a given seed and
// valid by construction (deletions name existing edges, insertions absent
// pairs, no pair twice per batch), so every shape can drive both a windowed
// system and its rebuild oracle from the same replayed stream.
type ShapeKind int

const (
	// HubChurn concentrates the whole batch on a few hub vertices: their
	// adjacency is torn down and rebuilt every batch, so the same (src,dst)
	// pairs are deleted, re-inserted and re-aged over and over — the
	// worst case for stale bucket entries in the window ring.
	HubChurn ShapeKind = iota
	// FlashCrowd inserts a dense burst around one focus vertex per period and
	// then goes quiet, so entire neighborhoods enter the window together and
	// expire together TTL batches later.
	FlashCrowd
	// DeleteStorm picks victim vertices and strips their entire adjacency —
	// the shape that reaches the remove-a-vertex's-last-edge path in the
	// sparse drain bitmap and leaves maximal stale entries behind.
	DeleteStorm
	// ExpiryAvalanche alternates heavy-insert batches with near-empty ones on
	// a fixed period, so when the heavy epoch reaches the window boundary a
	// large fraction of the graph expires in a single batch.
	ExpiryAvalanche
)

// String names the shape the way CI job names and bench labels spell it.
func (k ShapeKind) String() string {
	switch k {
	case HubChurn:
		return "hubchurn"
	case FlashCrowd:
		return "flashcrowd"
	case DeleteStorm:
		return "deletestorm"
	case ExpiryAvalanche:
		return "avalanche"
	default:
		return fmt.Sprintf("shape(%d)", int(k))
	}
}

// Shapes lists every adversarial shape, in a stable order for test matrices.
func Shapes() []ShapeKind {
	return []ShapeKind{HubChurn, FlashCrowd, DeleteStorm, ExpiryAvalanche}
}

// ShapeConfig parameterizes an adversarial generator.
type ShapeConfig struct {
	Kind ShapeKind
	// BatchSize bounds the number of edge updates per batch (mirrored
	// directions count, as in Config).
	BatchSize int
	// MaxWeight bounds inserted edge weights (uniform in [1, MaxWeight];
	// default 64).
	MaxWeight float64
	// Symmetric mirrors every update so the graph stays undirected.
	Symmetric bool
	// Period sets the burst cadence for FlashCrowd and ExpiryAvalanche in
	// batches (default 3); align it with the window TTL to land a burst's
	// expiry on top of the next burst's arrival.
	Period int
	Seed   int64
}

// ShapeGen draws successive adversarial batches against the current graph
// version. Like Generator, it is deterministic for a given seed and sequence
// of graphs, so a second generator with the same seed reproduces the run
// exactly.
type ShapeGen struct {
	cfg   ShapeConfig
	rng   *rand.Rand
	batch int // 0-based index of the next batch drawn
}

// NewShape returns an adversarial generator for cfg.
func NewShape(cfg ShapeConfig) *ShapeGen {
	if cfg.MaxWeight <= 0 {
		cfg.MaxWeight = 64
	}
	if cfg.Period <= 0 {
		cfg.Period = 3
	}
	return &ShapeGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next draws the next batch valid against g.
func (s *ShapeGen) Next(g *graph.CSR) graph.Batch {
	k := s.batch
	s.batch++
	switch s.cfg.Kind {
	case HubChurn:
		return s.hubChurn(g)
	case FlashCrowd:
		if k%s.cfg.Period != 0 {
			return s.trickle(g, 2)
		}
		return s.burst(g, graph.VertexID(s.rng.Intn(g.NumVertices())))
	case DeleteStorm:
		return s.deleteStorm(g)
	case ExpiryAvalanche:
		if k%s.cfg.Period != 0 {
			return s.trickle(g, 1)
		}
		return s.burst(g, graph.VertexID(s.rng.Intn(g.NumVertices())))
	default:
		return graph.Batch{}
	}
}

// budget is the per-batch update budget in logical updates (halved when
// mirroring, since each logical update emits both directions).
func (s *ShapeGen) budget() int {
	if s.cfg.Symmetric {
		return s.cfg.BatchSize / 2
	}
	return s.cfg.BatchSize
}

func (s *ShapeGen) weight() float64 {
	return 1 + s.rng.Float64()*(s.cfg.MaxWeight-1)
}

// emitter accumulates a valid batch: it tracks the pairs already used so no
// (src,dst) appears twice, and mirrors automatically under Symmetric.
type emitter struct {
	g    *graph.CSR
	sym  bool
	used map[Key]bool
	b    graph.Batch
}

// Key identifies an edge by endpoints, exported so trace and shape consumers
// can share pair-set bookkeeping.
type Key struct{ U, V graph.VertexID }

func newEmitter(g *graph.CSR, sym bool, hint int) *emitter {
	return &emitter{g: g, sym: sym, used: make(map[Key]bool, hint)}
}

func (e *emitter) norm(u, v graph.VertexID) Key {
	if e.sym && u > v {
		u, v = v, u
	}
	return Key{u, v}
}

// del emits a deletion of (u,v) (both directions under Symmetric) if the edge
// exists and the pair is unused; it reports whether it emitted.
func (e *emitter) del(u, v graph.VertexID) bool {
	k := e.norm(u, v)
	if e.used[k] {
		return false
	}
	w, ok := e.g.HasEdge(u, v)
	if !ok {
		return false
	}
	if e.sym {
		w2, ok2 := e.g.HasEdge(v, u)
		if !ok2 {
			return false
		}
		e.used[k] = true
		e.b.Deletes = append(e.b.Deletes,
			graph.Edge{Src: u, Dst: v, Weight: w},
			graph.Edge{Src: v, Dst: u, Weight: w2})
		return true
	}
	e.used[k] = true
	e.b.Deletes = append(e.b.Deletes, graph.Edge{Src: u, Dst: v, Weight: w})
	return true
}

// ins emits an insertion of (u,v) with weight w (mirrored under Symmetric) if
// the pair is absent and unused; it reports whether it emitted.
func (e *emitter) ins(u, v graph.VertexID, w float64) bool {
	if u == v {
		return false
	}
	k := e.norm(u, v)
	if e.used[k] {
		return false
	}
	if _, ok := e.g.HasEdge(u, v); ok {
		return false
	}
	if e.sym {
		if _, ok := e.g.HasEdge(v, u); ok {
			return false
		}
		e.used[k] = true
		e.b.Inserts = append(e.b.Inserts,
			graph.Edge{Src: u, Dst: v, Weight: w},
			graph.Edge{Src: v, Dst: u, Weight: w})
		return true
	}
	e.used[k] = true
	e.b.Inserts = append(e.b.Inserts, graph.Edge{Src: u, Dst: v, Weight: w})
	return true
}

func (e *emitter) size() int { return e.b.Size() }

// hubChurn tears down and rebuilds the adjacency of a few hubs: half the
// budget deletes the hubs' current out-edges, half re-inserts fresh spokes —
// frequently the very pairs just deleted, exercising the same-batch
// delete+insert (age refresh) idiom.
func (s *ShapeGen) hubChurn(g *graph.CSR) graph.Batch {
	n := g.NumVertices()
	hubs := 3
	if hubs > n {
		hubs = n
	}
	em := newEmitter(g, s.cfg.Symmetric, s.cfg.BatchSize)
	budget := s.budget()
	var torn []Key
	for h := 0; h < hubs && em.size() < s.cfg.BatchSize; h++ {
		hub := graph.VertexID(s.rng.Intn(n))
		g.OutEdges(hub, func(v graph.VertexID, _ graph.Weight) {
			if len(torn) < budget/2 && em.del(hub, v) {
				torn = append(torn, Key{hub, v})
			}
		})
	}
	// Rebuild: half of the re-inserts refresh a just-torn pair, half open new
	// spokes from the same hubs.
	for _, k := range torn {
		if em.size() >= s.cfg.BatchSize {
			break
		}
		if s.rng.Float64() < 0.5 {
			em.ins(k.U, k.V, s.weight())
		} else {
			em.ins(k.U, graph.VertexID(s.rng.Intn(n)), s.weight())
		}
	}
	for tries := 0; em.size() < s.cfg.BatchSize && tries < budget*16; tries++ {
		em.ins(graph.VertexID(s.rng.Intn(n)), graph.VertexID(s.rng.Intn(n)), s.weight())
	}
	return em.b
}

// burst floods the neighborhood of focus with fresh spokes (both spoke and
// spoke-to-spoke edges), so the whole clump shares one insertion epoch.
func (s *ShapeGen) burst(g *graph.CSR, focus graph.VertexID) graph.Batch {
	n := g.NumVertices()
	em := newEmitter(g, s.cfg.Symmetric, s.cfg.BatchSize)
	budget := s.budget()
	for tries := 0; em.size() < s.cfg.BatchSize && tries < budget*16; tries++ {
		v := graph.VertexID(s.rng.Intn(n))
		if s.rng.Float64() < 0.7 {
			em.ins(focus, v, s.weight())
		} else {
			u := graph.VertexID(s.rng.Intn(n))
			em.ins(u, v, s.weight())
		}
	}
	return em.b
}

// trickle emits a handful of background insertions so quiet batches still
// advance the stream without materially growing the graph.
func (s *ShapeGen) trickle(g *graph.CSR, updates int) graph.Batch {
	n := g.NumVertices()
	em := newEmitter(g, s.cfg.Symmetric, updates)
	for tries := 0; len(em.b.Inserts) < updates && tries < updates*64; tries++ {
		em.ins(graph.VertexID(s.rng.Intn(n)), graph.VertexID(s.rng.Intn(n)), s.weight())
	}
	return em.b
}

// deleteStorm strips victim vertices bare: every out-edge (and, under
// Symmetric, its mirror) of each victim goes, until the budget runs out. A
// sliver of the budget re-inserts elsewhere so the graph never fully drains
// over a long storm.
func (s *ShapeGen) deleteStorm(g *graph.CSR) graph.Batch {
	n := g.NumVertices()
	em := newEmitter(g, s.cfg.Symmetric, s.cfg.BatchSize)
	budget := s.budget()
	delBudget := budget * 3 / 4
	for tries := 0; len(em.b.Deletes) < delBudget && tries < budget*8; tries++ {
		victim := graph.VertexID(s.rng.Intn(n))
		g.OutEdges(victim, func(v graph.VertexID, _ graph.Weight) {
			if len(em.b.Deletes) < delBudget {
				em.del(victim, v)
			}
		})
	}
	for tries := 0; em.size() < s.cfg.BatchSize && tries < budget*16; tries++ {
		em.ins(graph.VertexID(s.rng.Intn(n)), graph.VertexID(s.rng.Intn(n)), s.weight())
	}
	return em.b
}
