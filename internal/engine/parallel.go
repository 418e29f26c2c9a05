package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// disjoint vertex set (the BFS-grown partition of
// internal/graph/partition.go), drains a private coalescing shard
// (queue.Shard), and routes cross-partition propagations through per-pair
// channels that mirror the internal/noc crossbar fabric.
//
// The PEs are standing hardware, so their software image is too: shards,
// links and worker structs are built once per engine, on the first phase that
// needs them, and every later phase reuses them. A compute phase starts on
// the calling goroutine with the sequential drain and hands its frontier to
// the workers only once the frontier is large enough to repay the fan-out
// (fanoutMinFrontier); a phase that stays small never touches this state.
//
// Correctness rests on three properties:
//
//   - Ownership: a vertex's state (and DAP dependency field) is read and
//     written only by its owning worker, so the shared state slice needs no
//     locks. Handlers never read another vertex's state — contributions
//     arrive in the event payload, exactly as in the hardware.
//   - Reordering: Reduce is commutative and associative (paper §3.1), so any
//     interleaving converges to the same fixpoint — identical bits for
//     selective kernels, within the epsilon-truncation bound for
//     accumulative ones.
//   - Quiescence: termination uses a distributed outstanding-event count
//     instead of the sequential empty-queue check. Every live event record
//     (queue slot, overflow entry, staged or in-flight cross event) holds
//     one token on a shared counter; tokens are acquired before the record
//     becomes visible and released only after it is retired (processed, or
//     merged into an already-counted slot). A worker observing zero may
//     therefore exit: nothing is live anywhere and no live record can mint
//     new work.

// chanCap bounds each per-pair data channel. Sends are non-blocking (a full
// channel leaves the events in the sender's staging buffer, retried next
// loop), so the capacity never decides correctness — but it does decide how
// promptly a busy receiver sees its neighbors' rounds. A queue of one holds a
// sender's later rounds back until the receiver has taken the first, and for
// accumulative kernels deltas that arrive late start their own chain of
// ever-smaller propagations instead of merging into the one already running,
// so more of them fall under epsilon: at capacity 1 the windowed adsorption
// differential overshoots its tolerance in one run out of five, at 8 in none
// of sixty. Beyond that a longer queue only adds buffers to keep.
const chanCap = 8

// freeCap bounds the return channel of a link: the buffers one pair can have
// in circulation are those queued in data, the one the sender is staging into
// and the one the receiver is unpacking, so returning a buffer never blocks
// and never has to drop one.
const freeCap = chanCap + 2

// recycleCap is the largest mail buffer, in events (6 KB), that a receiver
// hands back for reuse; a larger one is left to the collector as soon as it
// is unpacked. A round's output goes to each neighbor as one batch however
// large — delivering it in pieces costs coalescing, hence work — so buffer
// sizes follow the phase, and recycling every size would keep several times
// the largest batch per pair alive, during the phase and after it (measured:
// +15 MB peak RSS on the benchmark's durable-bulk tenants). With the cap, a
// phase whose batches are small allocates nothing in steady state, a large
// phase's large batches cost what they always did, and what an engine retains
// is bounded by freeCap·p²·recycleCap events.
const recycleCap = 256

// idleSpinLimit is how many times in a row an idle worker yields and looks
// again before it blocks on its wake channel. A neighbor mid-round usually
// mails within a few scheduler quanta, and a yield is cheaper than a
// park/unpark pair; past that the worker is only burning a core the busy
// workers could use. An iteration count, not a duration: this package may not
// read the wall clock (jetlint determinism).
const idleSpinLimit = 16

// A compute phase at parallelism > 1 leaves the calling goroutine for the PE
// workers iff both hold at a drain-round boundary:
//
//   - the frontier — live events in the queue — exceeds fanoutMinFrontier,
//     the least work that can repay starting and joining the workers and
//     routing the frontier into their shards; and
//   - the process has at least fanoutMinCores cores (GOMAXPROCS when the
//     engine was built) to run them on. An event on the PE path costs 2.4
//     to 3.7 caller events of CPU (ownership lookup, staging, mail, token
//     accounting, idle polling), so the workers only win once that many of
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

// link is the one-way fabric from one worker to another: data carries event
// batches to the receiver, free carries the emptied buffers back so a
// steady-state phase allocates none, and wake is the receiver's wake channel,
// raised after every batch so mail never waits on a blocked worker.
type link struct {
	data chan []event.Event
	free chan []event.Event
	wake chan struct{}
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
	wg      sync.WaitGroup

	// seedMerged[d] counts frontier events that coalesced into shard d while
	// the frontier moved over (attributed to d's owner: that is where the
	// merge happens in the hardware).
	seedMerged []uint64

	// outstanding is the quiescence barrier: live event records not yet
	// retired. Workers exit when they observe zero. Every worker hammers this
	// counter once per row batch, so it gets a cache line to itself — without
	// the fences its line also holds the read-mostly fields above, and every
	// Add would invalidate the view/state headers in all other workers'
	// caches.
	_           pad.Line
	outstanding atomic.Int64
	_           pad.Line
}

// peWorker is one simulated processing engine.
//
// The stats block and the per-batch tallies below the first pad line are
// written by this worker on every processed event. Workers are allocated
// back-to-back, so without the cache-line fences one worker's counter
// increments would sit on the same line as a neighbor's and the per-event
// stores would ping-pong ownership between cores — the classic false-sharing
// tax on exactly the path BenchmarkParallelism measures.
type peWorker struct {
	id      int
	run     *peRun
	shard   *queue.Shard
	staging [][]event.Event // cross-partition events not yet sent, per destination
	in      []link          // links into this worker, by source (zero at index id)
	out     []link          // links out of this worker, by destination (zero at index id)
	wake    chan struct{}   // raised by mail senders and by the quiescence transition

	_  pad.Line       // fence: per-event single-writer region below
	st stats.Counters // merged into the engine's sink at phase end

	// Per-batch token bookkeeping (see quiescence comment above).
	newLive int64 // records that became live while processing the current batch

	// backlog reports that the last flush left a batch staged behind a full
	// channel. Nobody signals when the channel drains, so a worker with a
	// backlog keeps polling instead of blocking.
	backlog bool

	// Observability tallies, published into the engine's Obs at phase end.
	// tr is nil when the engine is uninstrumented; it must be called only
	// with concurrency-safe tracers (the Tracer contract).
	tr        obs.Tracer
	trSeq     uint64
	sent      []uint64 // per-destination cross-partition events staged
	forwarded uint64   // total cross-partition events staged
	idleSpins uint64   // loop iterations that found no work and yielded
	parks     uint64   // times the worker blocked on its wake channel

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
// gets here and holds no shard, channel or worker.
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
	for i := range r.workers {
		w := &peWorker{
			id:      i,
			run:     r,
			shard:   r.sq.Shard(i),
			staging: make([][]event.Event, p),
			in:      make([]link, p),
			out:     make([]link, p),
			wake:    make(chan struct{}, 1),
			sent:    make([]uint64, p),
		}
		r.workers[i] = w
	}
	for i, src := range r.workers {
		for j, dst := range r.workers {
			if i == j {
				continue
			}
			l := link{
				data: make(chan []event.Event, chanCap),
				free: make(chan []event.Event, freeCap),
				wake: dst.wake,
			}
			src.out[j] = l
			dst.in[i] = l
		}
	}
	e.run = r
	return r
}

// fanOut finishes the current compute phase on p PE workers: the live
// frontier moves from the sequential queue into the shards, the workers run
// to global quiescence, and their counters merge back into the engine's.
// Worker 0 runs on the calling goroutine.
func (e *Engine) fanOut(p int) {
	r := e.peState(p)
	r.view, r.state, r.dep, r.trackDep = e.view, e.state, e.dep, e.dep != nil
	r.sq.Reset(e.q.CoalescingEnabled())
	for _, w := range r.workers {
		w.st = stats.Counters{}
		w.forwarded, w.idleSpins, w.parks, w.trSeq = 0, 0, 0, 0
		clear(w.sent)
		w.tr = nil
		if e.ob != nil {
			w.tr = e.ob.Tr
		}
	}

	// The frontier's events were counted as generated when they were emitted.
	// Workers have not started, so token ordering is not yet a concern.
	clear(r.seedMerged)
	r.outstanding.Store(int64(r.sq.Adopt(e.q, r.seedMerged)))
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
			e.publishWorker(i, &w.st, w.forwarded, w.sent, w.shard.HighWater(), w.idleSpins, w.parks)
		}
	}
}

// main is the goroutine body of workers 1..p-1.
func (w *peWorker) main() {
	defer w.run.wg.Done()
	w.loop()
}

// loop is the worker's scheduler: drain inbound cross-partition events,
// process local rows, flush outbound staging, and exit at global quiescence.
// A worker with nothing to do yields idleSpinLimit times, then blocks on its
// wake channel. That cannot lose a wakeup: whatever could give it work or end
// the phase — a mail send, the token count reaching zero — raises the channel
// after making the change visible, and the channel holds the signal until it
// is taken, so a signal raised between the checks above and the receive below
// is still there when the worker blocks. A stale signal costs one extra pass.
//
//jetlint:hotpath
func (w *peWorker) loop() {
	spins := 0
	for {
		progress := w.drainInbox()
		if !w.shard.Empty() {
			w.drainRounds()
			w.flushStaging()
			spins = 0
			continue
		}
		if w.flushStaging() || progress {
			spins = 0
			continue
		}
		if w.run.outstanding.Load() == 0 {
			return
		}
		if w.backlog || spins < idleSpinLimit {
			spins++
			w.idleSpins++
			runtime.Gosched()
			continue
		}
		w.parks++
		<-w.wake
		spins = 0
	}
}

// settle applies a token delta to the quiescence counter. The worker whose
// update retires the last token wakes everyone blocked, so they observe zero
// and leave.
func (w *peWorker) settle(delta int64) {
	if delta == 0 || w.run.outstanding.Add(delta) != 0 {
		return
	}
	for _, o := range w.run.workers {
		if o != w {
			raise(o.wake)
		}
	}
}

// raise sets a wake channel without blocking; an already-raised channel
// stays raised.
func raise(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// drainRounds processes the shard until it is momentarily empty,
// interleaving inbox drains so inbound events join the current cascade.
func (w *peWorker) drainRounds() {
	for !w.shard.Empty() {
		n := w.shard.DrainRound(func(batch []event.Event) {
			w.newLive = 0
			for _, ev := range batch {
				w.process(ev)
			}
			// One atomic per row batch: retire the batch's tokens and
			// acquire tokens for every record it made live. The swap
			// happens after the children exist (so the counter can never
			// dip to zero while work remains) and before staged events are
			// sent (staged records are counted, merely not yet visible).
			w.settle(w.newLive - int64(len(batch)))
		})
		if n > 0 {
			w.st.Rounds++
		}
		w.flushStaging()
		w.drainInbox()
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
//
//jetlint:hotpath
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
// shard directly, staged for the per-pair channel of another worker.
//
//jetlint:hotpath
func (w *peWorker) emit(t graph.VertexID, val float64, src graph.VertexID) {
	w.st.EventsGenerated++
	d := w.run.sq.Owner(t)
	if d == w.id {
		if w.shard.Put(t, val, src, 0) {
			w.st.EventsCoalesced++
		} else {
			w.newLive++
		}
		return
	}
	w.staging[d] = append(w.staging[d], event.Event{Target: t, Value: val, Source: src}) //jetlint:allow hotpathalloc -- the mail buffer: recycled through link.free up to recycleCap, left to the collector beyond (see recycleCap)
	w.newLive++
	w.sent[d]++
	w.forwarded++
}

// flushStaging attempts a non-blocking send of every staged batch, taking a
// buffer the receiver has handed back (if any) to stage into next. Full
// channels keep their batch staged for the next attempt, which cannot
// deadlock: every worker drains its inbox on every loop iteration.
func (w *peWorker) flushStaging() bool {
	sent := false
	w.backlog = false
	for d, evs := range w.staging {
		if len(evs) == 0 {
			continue
		}
		l := &w.out[d]
		select {
		case l.data <- evs:
			raise(l.wake)
			select {
			case w.staging[d] = <-l.free:
			default:
				w.staging[d] = nil
			}
			sent = true
			if w.tr != nil {
				w.trSeq++
				w.tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerMail, Seq: w.trSeq,
					Worker: w.id, A: uint64(d), B: uint64(len(evs))})
			}
		default:
			w.backlog = true
		}
	}
	return sent
}

// drainInbox receives every currently available inbound batch, inserts it
// into the local shard — releasing the tokens of records that coalesced away
// — and hands the emptied buffer back to its sender unless it outgrew
// recycleCap.
func (w *peWorker) drainInbox() bool {
	got := false
	for s := range w.in {
		l := &w.in[s]
		if l.data == nil {
			continue
		}
		for {
			select {
			case evs := <-l.data:
				got = true
				merged := int64(0)
				for _, ev := range evs {
					if w.shard.Insert(ev) {
						w.st.EventsCoalesced++
						merged++
					}
				}
				if cap(evs) <= recycleCap {
					select {
					case l.free <- evs[:0]:
					default:
					}
				}
				w.settle(-merged)
				continue
			default:
			}
			break
		}
	}
	return got
}
