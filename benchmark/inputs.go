package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"jetstream"
	"jetstream/internal/algo"
	"jetstream/internal/graph"
	"jetstream/internal/service"
	"jetstream/internal/stream"
	"jetstream/internal/window"
)

// model is the harness's own copy of one tenant's evolving graph: a CSR plus,
// for windowed tenants, the epoch ring that decides which edges age out. The
// batch generator draws every batch valid against it, the sequential
// reference state is solved on its final version, and the traced run uses the
// same type as its graph and window twins.
type model struct {
	g     *graph.CSR
	ring  *window.Ring // nil without a window
	epoch uint64       // batches applied so far
}

func newModel(g *graph.CSR, ttl int) (*model, error) {
	m := &model{g: g}
	if ttl > 0 {
		ring, err := window.New(ttl)
		if err != nil {
			return nil, err
		}
		ring.Seed(0, g.Edges())
		m.ring = ring
	}
	return m, nil
}

// mergeExpired prepends the window's expired edges to the sanitized user
// batch as deletes carrying their stored weights — what System.expireInto
// hands the engine. A user delete of an expiring edge wins.
func mergeExpired(g *graph.CSR, expired []window.Key, clean graph.Batch) (graph.Batch, error) {
	if len(expired) == 0 {
		return clean, nil
	}
	merged := graph.Batch{
		Deletes: make([]graph.Edge, 0, len(expired)+len(clean.Deletes)),
		Inserts: clean.Inserts,
	}
	for _, k := range expired {
		w, ok := g.HasEdge(k.Src, k.Dst)
		if !ok {
			return graph.Batch{}, fmt.Errorf("window: expiring edge (%d,%d) absent from graph", k.Src, k.Dst)
		}
		merged.Deletes = append(merged.Deletes, graph.Edge{Src: k.Src, Dst: k.Dst, Weight: w})
	}
	merged.Deletes = append(merged.Deletes, clean.Deletes...)
	return merged, nil
}

// userDeleteSkip returns the skip predicate Expire needs: keys the user batch
// already deletes.
func userDeleteSkip(clean graph.Batch) func(window.Key) bool {
	del := make(map[window.Key]bool, len(clean.Deletes))
	for _, e := range clean.Deletes {
		del[window.Key{Src: e.Src, Dst: e.Dst}] = true
	}
	return func(k window.Key) bool { return del[k] }
}

// apply advances the model by one user batch, returning the batch the engine
// would see (expiry merged in) and how many edges expired.
func (m *model) apply(b graph.Batch) (graph.Batch, int, error) {
	clean, issues := m.g.SanitizeBatch(b)
	if len(issues) > 0 {
		return graph.Batch{}, 0, fmt.Errorf("generated batch %d is invalid: %v", m.epoch+1, issues[0])
	}
	merged, expired := clean, 0
	if m.ring != nil {
		keys := m.ring.Expire(m.epoch+1, userDeleteSkip(clean))
		var err error
		if merged, err = mergeExpired(m.g, keys, clean); err != nil {
			return graph.Batch{}, 0, err
		}
		expired = len(keys)
	}
	ng, err := m.g.ApplyDelta(merged)
	if err != nil {
		return graph.Batch{}, 0, err
	}
	m.g = ng
	if m.ring != nil {
		m.ring.Record(m.epoch+1, clean)
	}
	m.epoch++
	return merged, expired, nil
}

// tenantInput is everything one tenant needs for a run, all derived from the
// seed: its declaration, its batch sequence (as engine batches and as the JSON
// the daemon receives), and the sequential reference state after the last
// batch.
type tenantInput struct {
	spec       tenantSpec
	alg        jetstream.Algorithm
	req        service.CreateRequest
	createBody []byte
	batches    []graph.Batch
	bodies     [][]byte
	// ref is the sequential reference state after the last batch, refWarm
	// after the warm-up batches only (what a recovery drill must restore).
	ref     []float64
	refWarm []float64
}

// graphSpec is the wire declaration of the tenant's seed graph. The daemon
// rebuilds the graph from it; the harness builds its model from the same
// spec through the same code, so both start from identical edges.
func (t tenantSpec) graphSpec(seed int64) service.GraphSpec {
	return service.GraphSpec{
		Gen: "rmat", Vertices: t.vertices, Edges: t.edges,
		Seed: seed, Symmetrize: t.symmetric(),
	}
}

// prepareTenant generates tenant idx's inputs for n batches, the first warm of
// them warm-up. withBodies also encodes every batch as the JSON body the
// daemon receives.
func prepareTenant(spec tenantSpec, seed int64, idx, n, warm int, withBodies bool) (*tenantInput, error) {
	alg, err := jetstream.NewAlgorithm(spec.algo)
	if err != nil {
		return nil, err
	}
	in := &tenantInput{
		spec: spec, alg: alg,
		req: service.CreateRequest{
			Name:      spec.name,
			Graph:     spec.graphSpec(seed*1000 + int64(idx)),
			Algorithm: spec.algo,
			Config:    spec.config,
		},
	}
	if in.createBody, err = json.Marshal(in.req); err != nil {
		return nil, err
	}
	g, err := in.req.Graph.Build()
	if err != nil {
		return nil, err
	}
	m, err := newModel(g, spec.config.WindowTTL)
	if err != nil {
		return nil, err
	}
	gen := stream.NewGenerator(stream.Config{
		BatchSize:  spec.batchSize,
		InsertFrac: spec.insertFrac,
		Symmetric:  spec.symmetric(),
		Seed:       seed*1000 + 500 + int64(idx),
	})
	in.batches = make([]graph.Batch, 0, n)
	for i := 0; i < n; i++ {
		b := gen.Next(m.g)
		if _, _, err := m.apply(b); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		in.batches = append(in.batches, b)
		if withBodies {
			body, err := json.Marshal(wireBatch(b))
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
		if i+1 == warm {
			in.refWarm = algo.Reference(alg, m.g)
		}
	}
	in.ref = algo.Reference(alg, m.g)
	return in, nil
}

// prepareTenants generates every tenant's inputs, n[i] batches for tenant i,
// one goroutine per tenant and at most one per CPU at a time.
func prepareTenants(w workload, seed int64, n []int, withBodies, corrupt bool) ([]*tenantInput, error) {
	ins := make([]*tenantInput, len(w.tenants))
	errs := make([]error, len(w.tenants))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, spec := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ins[i], errs[i] = prepareTenant(spec, seed, i, n[i], w.warmup, withBodies)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if corrupt {
		// The gate's own test: one wrong value in one reference must fail the run.
		v := &ins[0].ref[len(ins[0].ref)/2]
		*v = math.Float64frombits(math.Float64bits(*v) ^ 1)
	}
	return ins, nil
}

// wireBatch lifts an engine batch to its wire form.
func wireBatch(b graph.Batch) service.WireBatch {
	conv := func(es []graph.Edge) []service.WireEdge {
		if len(es) == 0 {
			return nil
		}
		out := make([]service.WireEdge, len(es))
		for i, e := range es {
			out[i] = service.WireEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
		}
		return out
	}
	return service.WireBatch{Inserts: conv(b.Inserts), Deletes: conv(b.Deletes)}
}

// bitwiseEqual reports whether two state vectors hold identical float64 bits.
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
