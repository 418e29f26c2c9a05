package main

import (
	"time"

	"jetstream/internal/algo"
	"jetstream/internal/engine"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/queue"
)

// probeReps is how many times each probe repeats; the median is reported.
const probeReps = 41

// probes measure the fixed part of core.compute_ns that spans cannot split
// from outside: what one compute phase costs when it has nothing to do, what
// building the sharded queue costs, and what draining a batch-sized handful
// of events from a V-slot queue costs — all at the workload's vertex count
// and engine parallelism, on the first tenant's current graph.
func probes(res *result, tw *twins) error {
	g, err := graph.Build(tw.g.NumVertices(), tw.g.Edges())
	if err != nil {
		return err
	}
	alg := tw.in.alg
	cfg := coreConfig(tw.in.spec.config).Engine
	var opts []engine.Option
	if alg.Class() == algo.Selective {
		opts = append(opts, engine.WithDependencyTracking())
	}
	eng := engine.New(g, alg, cfg, nil, opts...)
	eng.RunToConvergence()

	// One event that improves nothing: the phase fans out, finds quiescence
	// and joins.
	timed := func(fn func()) float64 {
		samples := make([]float64, 0, probeReps)
		for i := 0; i < probeReps; i++ {
			t := time.Now()
			fn()
			samples = append(samples, float64(time.Since(t)))
		}
		return median(samples)
	}
	res.metrics["engine.min_phase_ns"] = timed(func() {
		eng.Emit(event.Event{Target: 0, Value: alg.Identity(), Source: event.NoSource})
		eng.RunCompute()
	})

	p := max(cfg.Parallelism, 1)
	part := graph.PartitionGraph(g, p)
	owner := make([]int32, g.NumVertices())
	for v := range owner {
		owner[v] = int32(part.SliceOf(graph.VertexID(v)))
	}
	coalesce := queue.ReduceCoalesce(alg.Reduce)
	res.metrics["queue.new_sharded_ns"] = timed(func() {
		queue.NewSharded(p, owner, cfg.Queue, coalesce, true)
	})

	// A batch-sized handful of events on the vertices a batch touches.
	events := max(int(res.metrics["core.events_per_batch"]), 1)
	var targets []graph.VertexID
	for _, b := range tw.in.batches {
		for _, e := range b.Inserts {
			targets = append(targets, e.Dst)
		}
		for _, e := range b.Deletes {
			targets = append(targets, e.Dst)
		}
		if len(targets) >= events {
			break
		}
	}
	q := queue.New(g.NumVertices(), cfg.Queue, coalesce, nil)
	samples := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		for k := 0; k < events; k++ {
			q.Insert(event.Event{Target: targets[k%len(targets)], Value: alg.Identity(), Source: event.NoSource})
		}
		t := time.Now()
		q.Drain(func([]event.Event) {})
		samples = append(samples, float64(time.Since(t)))
	}
	res.metrics["queue.sparse_drain_ns"] = median(samples)
	res.note("probes at V=%d, p=%d: %d repetitions each, %d events per sparse drain", g.NumVertices(), p, probeReps, events)
	return nil
}
