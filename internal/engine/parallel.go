package engine

import (
	"math"
	"sync"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/pad"
	"jetstream/internal/queue"
	"jetstream/internal/stats"
)

// This file is the parallel multi-PE execution path of the functional engine.
// The paper's accelerator runs 8 event-processing PEs concurrently over a
// partitioned vertex space (Table 1); here each PE is one worker that owns a
// disjoint vertex set (graph.PartitionGraph), drains a private coalescing
// shard (queue.Shard), and routes cross-partition propagations through
// per-pair outboxes that mirror the internal/noc crossbar fabric. Shards,
// outboxes and workers are built by the first phase that fans out and reused
// by every later one; a phase that stays on the caller never touches them.
//
// A fanned-out phase runs in supersteps, as the paper's PEs drain the queue
// round by round: every worker drains exactly one round of its shard, all
// meet at a barrier, each merges the mail addressed to it in ascending sender
// order, and all meet again; the phase ends after the first superstep that
// leaves every shard empty. Correctness rests on three properties:
//
//   - Ownership: a vertex's state (and DAP dependency field) is read and
//     written only by its owning worker, so the shared state slice needs no
//     locks. Contributions arrive in the event payload, as in the hardware.
//   - Reordering: Reduce is commutative and associative (paper §3.1), so
//     supersteps converge to the sequential drain's fixpoint — identical bits
//     for selective kernels, within the epsilon-truncation bound for
//     accumulative ones.
//   - Determinism: what a worker drains in a superstep is its own puts in
//     drain order, then its mail in sender order — a function of the previous
//     barrier's shards, never of scheduling — so at a fixed p a phase is
//     bitwise reproducible, counters included, on any number of cores.

// recycleCap is the largest outbox, in events (8 KB), that a worker keeps for
// the next superstep; a larger one is left to the collector once merged. A
// round's output goes to each neighbor as one batch however large (pieces
// cost coalescing, hence work), and keeping every size would hold the largest
// batch per pair alive after the phase (measured: +15 MB peak RSS on the
// benchmark's durable-bulk tenants). With the cap a phase of small batches
// allocates nothing in steady state, and an engine retains at most
// p²·recycleCap events.
const recycleCap = 256

// A compute phase at parallelism > 1 leaves the calling goroutine for the PE
// workers iff both hold at a drain-round boundary:
//
//   - the frontier — live events in the queue — exceeds fanoutMinFrontier,
//     the least work that can repay starting and joining the workers and
//     routing the frontier into their shards; and
//   - the process has at least fanoutMinCores cores (GOMAXPROCS when the
//     engine was built) to run them on. An event on the PE path costs 2.4
//     to 3.7 caller events of CPU (ownership lookup, staging, mail,
//     coordination), so the workers only win once that many of
//     them really run at once; with fewer cores fan-out loses at every
//     frontier and the phase stays on the caller however large it grows.
//
// Both inputs are things the engine observes, and both constants are read
// off BenchmarkFanoutBreakEven (reasoning in DESIGN.md §7, the sweep in
// results/PR16-durable-bulk.md), so neither is a knob.
const (
	fanoutMinFrontier = 2048
	fanoutMinCores    = 4
)

// fanoutThreshold and fanoutCores are what RunCompute compares against. Only
// tests assign them (SetFanoutThresholdForTest), to pin a phase to one path.
var (
	fanoutThreshold = fanoutMinFrontier
	fanoutCores     = fanoutMinCores
)

// barrier is a reusable rendezvous of n goroutines: wait returns once all n
// have called it. A waiter sleeps until its own meeting's generation is over,
// so one already arriving at the next meeting cannot release the last.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	arrived int
	gen     uint64
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// peRun is the engine-lifetime state of the parallel path: everything a
// fanned-out phase needs that does not depend on the phase.
type peRun struct {
	alg algo.Algorithm
	acc bool
	eps float64

	// Set for the duration of a fan-out: SetGraph swaps the view between
	// phases, and a view kept here afterwards would pin a graph version the
	// host has long since released.
	view     GraphView
	state    []float64
	dep      []graph.VertexID
	trackDep bool

	sq      *queue.Sharded
	workers []*peWorker
	step    barrier
	wg      sync.WaitGroup

	// seedMerged[d] counts frontier events that coalesced into shard d while
	// the frontier moved over (attributed to d's owner: that is where the
	// merge happens in the hardware).
	seedMerged []uint64
}

// peWorker is one simulated processing engine. Everything below the first pad
// line is written by this worker on every processed event; the fences keep
// back-to-back workers' counters off each other's cache lines, so per-event
// stores do not ping-pong a line between cores (false sharing).
type peWorker struct {
	id      int
	run     *peRun
	shard   *queue.Shard
	staging [][]event.Event     // outbox per destination, merged by it between the barriers
	drain   func([]event.Event) // processes one row batch; bound once

	_  pad.Line       // fence: per-event single-writer region below
	st stats.Counters // merged into the engine's sink at phase end

	live int // shard length after this superstep's mail: the termination test

	// Observability tallies, published into the engine's Obs at phase end.
	// tr is nil when the engine is uninstrumented; it must be called only
	// with concurrency-safe tracers (the Tracer contract).
	tr        obs.Tracer
	trSeq     uint64
	sent      []uint64 // per-destination cross-partition events staged
	forwarded uint64   // total cross-partition events staged
	idleSpins uint64   // supersteps with nothing to drain, spent waiting at the barrier

	_ pad.Line // fence: nothing after the hot region shares its last line
}

// parallelism returns the effective worker count for the next compute phase:
// the configured Parallelism, clamped to the vertex count, and 1 (sequential)
// whenever a sequential-only feature is active — the timing model (which
// reconstructs hardware parallelism from the deterministic trace), graph
// slicing (§4.7 processes one slice at a time by design), or a trace hook.
func (e *Engine) parallelism() int {
	p := e.cfg.Parallelism
	if p <= 1 || e.cfg.Timing || e.part != nil || e.trace != nil {
		return 1
	}
	if n := e.csr.NumVertices(); p > n {
		p = n
	}
	if p <= 1 {
		return 1
	}
	return p
}

// RunCompute runs the regular computation phase (Algorithm 1 with
// JetStream's request/dependency extensions) to quiescence. Parallelism 1 is
// byte-for-byte the sequential engine, and so is any parallelism on a box
// with fewer than fanoutMinCores cores. Otherwise the phase still starts as
// the sequential drain on the calling goroutine, and moves to the PE workers
// at the first drain-round boundary where the frontier exceeds
// fanoutMinFrontier — so a phase costs what its events cost, and a small
// batch never pays a fan-out.
func (e *Engine) RunCompute() {
	e.materialize()
	p := e.parallelism()
	if p == 1 || e.cores < fanoutCores {
		e.RunPhase(e.ComputeHandler())
		e.countComputePhase(false)
		return
	}
	seq, p0 := e.beginPhase()
	h := e.ComputeHandler()
	fanned := false
	for !e.q.Empty() {
		if e.q.Len() > fanoutThreshold {
			e.fanOut(p)
			fanned = true
			break
		}
		e.drainRound(h)
	}
	e.endPhase(seq, p0)
	e.countComputePhase(fanned)
}

// ownership returns the cached vertex -> worker assignment for p workers,
// computing it from the BFS-grown partitioner on first use. Ownership only
// needs disjointness and the vertex count never changes, so the assignment is
// fixed per (p, V) for the engine's life — which is what lets the shards
// indexed by it be engine-lifetime too.
func (e *Engine) ownership(p int) []int32 {
	if e.owner == nil || e.ownerK != p {
		part := graph.PartitionGraph(e.csr, p)
		e.owner = make([]int32, e.csr.NumVertices())
		for v := range e.owner {
			e.owner[v] = int32(part.SliceOf(graph.VertexID(v)))
		}
		e.ownerK = p
	}
	return e.owner
}

// peState returns the engine's parallel run state for p workers, building it
// on the first fan-out. An engine whose phases all stay on the caller never
// gets here and holds no shard, outbox or worker.
func (e *Engine) peState(p int) *peRun {
	if e.run != nil && len(e.run.workers) == p {
		return e.run
	}
	r := &peRun{
		alg:        e.alg,
		acc:        e.alg.Class() == algo.Accumulative,
		eps:        e.alg.Epsilon(),
		sq:         queue.NewSharded(p, e.ownership(p), e.cfg.Queue, queue.ReduceCoalesce(e.alg.Reduce), true),
		workers:    make([]*peWorker, p),
		seedMerged: make([]uint64, p),
	}
	r.step.n, r.step.cond.L = p, &r.step.mu
	for i := range r.workers {
		w := &peWorker{
			id:      i,
			run:     r,
			shard:   r.sq.Shard(i),
			staging: make([][]event.Event, p),
			sent:    make([]uint64, p),
		}
		w.drain = func(batch []event.Event) {
			for _, ev := range batch {
				w.process(ev)
			}
		}
		r.workers[i] = w
	}
	e.run = r
	return r
}

// fanOut finishes the current compute phase on p PE workers: the live
// frontier moves from the sequential queue into the shards, the workers run
// supersteps until every shard is empty, and their counters merge back into
// the engine's. Worker 0 runs on the calling goroutine.
func (e *Engine) fanOut(p int) {
	r := e.peState(p)
	r.view, r.state, r.dep, r.trackDep = e.view, e.state, e.dep, e.dep != nil
	r.sq.Reset(e.q.CoalescingEnabled())
	for _, w := range r.workers {
		w.st = stats.Counters{}
		w.forwarded, w.idleSpins, w.trSeq = 0, 0, 0
		clear(w.sent)
		w.tr = nil
		if e.ob != nil {
			w.tr = e.ob.Tr
		}
	}

	// The frontier's events were counted as generated when they were emitted.
	clear(r.seedMerged)
	r.sq.Adopt(e.q, r.seedMerged)
	for d, n := range r.seedMerged {
		e.st.EventsCoalesced += n
		if e.ob != nil && n > 0 {
			e.ob.worker(d).coalesced.Add(n)
			e.obPub.EventsCoalesced += n
		}
	}

	r.wg.Add(p - 1)
	for _, w := range r.workers[1:] {
		go w.main()
	}
	r.workers[0].loop()
	r.wg.Wait()
	r.view = nil

	// Merge the per-worker counters into the engine's sink (the per-worker
	// accumulation that keeps internal/stats correct without contended
	// atomics on the hot path), then publish each worker's share into its
	// labeled series and the NoC transfer matrix.
	for _, w := range r.workers {
		e.st.Add(&w.st)
	}
	if e.ob != nil {
		for i, w := range r.workers {
			e.publishWorker(i, &w.st, w.forwarded, w.sent, w.shard.HighWater(), w.idleSpins)
		}
	}
}

// main is the goroutine body of workers 1..p-1.
func (w *peWorker) main() {
	defer w.run.wg.Done()
	w.loop()
}

// loop runs the worker's supersteps. Between the two barriers a worker reads
// the others' outboxes and writes its own shard and live count; after the
// second it reads the live counts and writes its own outboxes, and no one
// writes a count again before passing the next first barrier — so the
// barriers are the whole synchronization, and every worker reaches the same
// verdict in the same superstep.
func (w *peWorker) loop() {
	r := w.run
	for {
		if w.shard.Empty() {
			w.idleSpins++
		} else {
			w.shard.DrainRound(w.drain)
			w.st.Rounds++
		}
		r.step.wait()
		for _, o := range r.workers { // a worker's outbox to itself stays empty
			for _, ev := range o.staging[w.id] {
				if w.shard.Put(ev.Target, ev.Value, ev.Source, ev.Flags) {
					w.st.EventsCoalesced++
				}
			}
		}
		w.live = w.shard.Len()
		r.step.wait()
		w.clearOutboxes()
		live := 0
		for _, o := range r.workers {
			live += o.live
		}
		if live == 0 {
			return
		}
	}
}

// process applies one event — the parallel twin of Engine.ComputeHandler,
// using per-worker counters and ownership-routed emission.
func (w *peWorker) process(ev event.Event) {
	r := w.run
	v := ev.Target
	w.st.EventsProcessed++
	w.st.VertexReads++
	old := r.state[v]
	if r.acc {
		r.state[v] = r.alg.Reduce(old, ev.Value)
		w.st.VertexWrites++
		w.propagate(v, ev.Value)
		return
	}
	nw := r.alg.Reduce(old, ev.Value)
	changed := nw != old
	if changed {
		r.state[v] = nw
		w.st.VertexWrites++
		if r.trackDep {
			r.dep[v] = ev.Source
		}
	}
	if changed || ev.IsRequest() {
		w.propagate(v, nw)
	}
}

// propagate sends x from u along every out-edge in the active view — the
// parallel twin of Engine.PropagateValue.
func (w *peWorker) propagate(u graph.VertexID, x float64) {
	r := w.run
	ids, ws := r.view.OutAdj(u)
	if len(ids) == 0 {
		return
	}
	deg, wsum := len(ids), r.view.OutWeightSum(u)
	ws = ws[:deg]
	for i, dst := range ids {
		val := r.alg.Propagate(u, x, ws[i], deg, wsum)
		if r.acc && math.Abs(val) <= r.eps {
			continue
		}
		w.emit(dst, val, u)
	}
	w.st.EdgeReads += uint64(deg)
}

// emit routes an event to the owner of its target: merged into the local
// shard directly, appended to the outbox of another worker.
func (w *peWorker) emit(t graph.VertexID, val float64, src graph.VertexID) {
	w.st.EventsGenerated++
	d := w.run.sq.Owner(t)
	if d == w.id {
		if w.shard.Put(t, val, src, 0) {
			w.st.EventsCoalesced++
		}
		return
	}
	w.staging[d] = append(w.staging[d], event.Event{Target: t, Value: val, Source: src})
	w.sent[d]++
	w.forwarded++
}

// clearOutboxes empties this worker's outboxes once every receiver has
// merged them, tracing each delivery and dropping any buffer that outgrew
// recycleCap.
func (w *peWorker) clearOutboxes() {
	for d, evs := range w.staging {
		if len(evs) == 0 {
			continue
		}
		if w.tr != nil {
			w.trSeq++
			w.tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerMail, Seq: w.trSeq,
				Worker: w.id, A: uint64(d), B: uint64(len(evs))})
		}
		if cap(evs) > recycleCap {
			w.staging[d] = nil
		} else {
			w.staging[d] = evs[:0]
		}
	}
}
