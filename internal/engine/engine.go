package engine

import (
	"math"
	"runtime"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/queue"
	"jetstream/internal/stats"
)

// GraphView is the engine's read interface to the active graph version. Both
// *graph.CSR and *graph.View satisfy it; the latter is the "intermediate
// graph" of accumulative deletion (paper Fig 5) where mutated vertices are
// temporary sinks.
type GraphView interface {
	NumVertices() int
	OutDegree(u graph.VertexID) int
	OutWeightSum(u graph.VertexID) float64
	// OutAdj returns u's out-neighbors and edge weights as two slices of
	// equal length (empty for a sink); the engine reads them, never writes.
	OutAdj(u graph.VertexID) (ids []graph.VertexID, ws []graph.Weight)
}

// Handler processes one event during a phase. Handlers use the engine's
// ReadVertex/WriteVertex/PropagateValue/EmitAlongEdges helpers so that work
// counting and timing see every access.
type Handler func(ev event.Event)

// Engine executes event-driven phases over a graph: the GraphPulse compute
// loop plus the plumbing (queue, slicing, timing hooks) that JetStream's
// streaming phases in internal/core reuse.
type Engine struct {
	cfg Config
	alg algo.Algorithm
	// acc and eps cache the kernel's class and threshold for the per-edge
	// suppression test of PropagateValue.
	acc bool
	// prune drops, at the emit site of a compute phase, an event its target
	// already dominates (selective kernels, no cycle model; see PropagateValue).
	prune bool
	eps   float64

	csr  *graph.CSR // backing CSR of the active view (for edge offsets)
	view GraphView

	// state and dep are materialized lazily on first use (see materialize):
	// constructing an Engine is O(1) in the vertex count, so a service can
	// hold thousands of idle standing queries without paying O(V) each.
	state   []float64
	dep     []graph.VertexID // dependency field per vertex (DAP, §5.2); nil unless tracking
	wantDep bool             // WithDependencyTracking requested; dep allocated at materialize

	q  *queue.Coalescing
	st *stats.Counters
	tm *Timing

	part    *graph.Partition
	active  int
	pending [][]event.Event

	// Parallel compute path (see parallel.go): the vertex -> worker map for
	// ownerK workers, and the shards, links and workers built over it on the
	// first phase that fans out. Both live as long as the engine. cores is
	// GOMAXPROCS as New found it, the second input of the escalation rule.
	owner  []int32
	ownerK int
	run    *peRun
	cores  int

	// trace observes every event the sequential path processes, in order
	// (golden-trace tests). Non-nil trace forces sequential execution.
	trace func(event.Event)

	// ob holds the attached observability sinks (nil when uninstrumented);
	// obPub is the portion of st already attributed to per-worker series
	// (see observe.go for the attribution contract).
	ob    *Obs
	obPub stats.Counters

	computeH Handler // cached ComputeHandler

	// Per-row-batch recording for the timing layer: what Timing.Batch is
	// charged with. Appended to only while a cycle model is attached (tm !=
	// nil) — nothing else reads them.
	batchTouched []graph.VertexID
	batchWritten int
	batchFetches []EdgeFetch
	batchGenT    []graph.VertexID
}

// Option configures an Engine.
type Option func(*Engine)

// WithDependencyTracking enables the per-vertex dependency field used by
// the DAP optimization; the field itself is allocated with the state at
// first use.
func WithDependencyTracking() Option {
	return func(e *Engine) { e.wantDep = true }
}

// WithPartition slices the vertex space into k parts processed one at a
// time, spilling cross-slice events off-chip (paper §4.7). k <= 1 disables
// slicing.
func WithPartition(k int) Option {
	return func(e *Engine) {
		if k <= 1 {
			return
		}
		e.part = graph.PartitionGraph(e.csr, k)
		e.pending = make([][]event.Event, k)
	}
}

// New builds an engine over g running alg. The stats sink st may be nil.
func New(g *graph.CSR, alg algo.Algorithm, cfg Config, st *stats.Counters, opts ...Option) *Engine {
	if st == nil {
		st = &stats.Counters{}
	}
	e := &Engine{
		cfg:   cfg,
		alg:   alg,
		acc:   alg.Class() == algo.Accumulative,
		eps:   alg.Epsilon(),
		csr:   g,
		view:  g,
		st:    st,
		cores: runtime.GOMAXPROCS(0),
	}
	e.q = queue.New(g.NumVertices(), cfg.Queue, queue.ReduceCoalesce(alg.Reduce), st)
	if cfg.Timing {
		e.tm = NewTiming(cfg, st)
	}
	e.prune = !e.acc && e.tm == nil
	for _, o := range opts {
		o(e)
	}
	return e
}

// materialize allocates the per-vertex state (and, when requested, the
// dependency field) on first touch, filled with the kernel's identity. Every
// path that reads or writes vertex state goes through it, so an Engine that
// never runs never allocates O(V).
func (e *Engine) materialize() {
	if e.state != nil {
		return
	}
	n := e.csr.NumVertices()
	id := e.alg.Identity()
	e.state = make([]float64, n)
	for i := range e.state {
		e.state[i] = id
	}
	if e.wantDep {
		e.dep = make([]graph.VertexID, n)
		for i := range e.dep {
			e.dep[i] = event.NoSource
		}
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Algorithm returns the running kernel.
func (e *Engine) Algorithm() algo.Algorithm { return e.alg }

// Stats returns the counter sink.
func (e *Engine) Stats() *stats.Counters { return e.st }

// Queue exposes the event queue to the streaming phases.
func (e *Engine) Queue() *queue.Coalescing { return e.q }

// Timing returns the cycle model (nil when timing is disabled).
func (e *Engine) Timing() *Timing { return e.tm }

// CSR returns the CSR backing the active view.
func (e *Engine) CSR() *graph.CSR { return e.csr }

// State returns the live vertex-state slice (not a copy).
func (e *Engine) State() []float64 {
	e.materialize()
	return e.state
}

// Dep returns the dependency fields (nil unless DAP tracking is on).
func (e *Engine) Dep() []graph.VertexID {
	e.materialize()
	return e.dep
}

// Cycles returns accumulated cycles (0 with timing off).
func (e *Engine) Cycles() uint64 {
	if e.tm == nil {
		return 0
	}
	return e.tm.Cycles()
}

// SetGraph switches the engine to a new graph version (the host's CSR
// pointer swap, §4.7). Vertex count must be unchanged; vertex state is
// retained — that is the whole point of streaming evaluation.
func (e *Engine) SetGraph(csr *graph.CSR, view GraphView) {
	if csr.NumVertices() != e.csr.NumVertices() {
		panic("engine: graph version changed vertex count")
	}
	e.csr = csr
	if view == nil {
		e.view = csr
	} else {
		e.view = view
	}
}

// View returns the active graph view.
func (e *Engine) View() GraphView { return e.view }

// ReadVertex reads v's state through the scratchpad, counting the access.
func (e *Engine) ReadVertex(v graph.VertexID) float64 {
	e.materialize()
	e.st.VertexReads++
	if e.tm != nil {
		e.batchTouched = append(e.batchTouched, v)
	}
	return e.state[v]
}

// PeekVertex reads v's state without charging an access — for decisions the
// hardware makes on data already in the event payload or scratchpad.
func (e *Engine) PeekVertex(v graph.VertexID) float64 {
	e.materialize()
	return e.state[v]
}

// WriteVertex updates v's state, counting the write-back.
func (e *Engine) WriteVertex(v graph.VertexID, x float64) {
	e.materialize()
	e.st.VertexWrites++
	e.batchWritten++
	e.state[v] = x
}

// SetDep records v's dependency source (no-op unless tracking).
func (e *Engine) SetDep(v, src graph.VertexID) {
	if !e.wantDep {
		return
	}
	e.materialize()
	e.dep[v] = src
}

// Emit queues ev; see EmitTo.
func (e *Engine) Emit(ev event.Event) { e.EmitTo(ev.Target, ev.Value, ev.Source, ev.Flags) }

// EmitTo generates one event from its fields: it is counted, recorded for
// the cycle model, and merged into the queue slot of its target — or spilled
// to the pending list of its slice when slicing is active and the target
// lies in an inactive slice. Every emitter ends here.
func (e *Engine) EmitTo(t graph.VertexID, val float64, src graph.VertexID, fl event.Flags) {
	e.st.EventsGenerated++
	if e.tm != nil {
		e.batchGenT = append(e.batchGenT, t)
	}
	if e.part != nil {
		if s := e.part.SliceOf(t); s != e.active {
			e.pending[s] = append(e.pending[s], event.Event{Target: t, Value: val, Source: src, Flags: fl})
			return
		}
	}
	e.q.Put(t, val, src, fl)
}

// outAdj fetches u's out-adjacency in the active view for a generation
// stream: it counts the edge reads and, for the cycle model, records the
// adjacency range. ws is cut to len(ids) so a loop over ids indexes it
// without a bounds check.
func (e *Engine) outAdj(u graph.VertexID) (ids []graph.VertexID, ws []graph.Weight) {
	ids, ws = e.view.OutAdj(u)
	if len(ids) == 0 {
		return nil, nil
	}
	e.st.EdgeReads += uint64(len(ids))
	if e.tm != nil {
		e.batchFetches = append(e.batchFetches, EdgeFetch{Offset: e.csr.EdgeOffset(u), Count: len(ids)})
	}
	return ids, ws[:len(ids)]
}

// EmitAlongEdges sends val unchanged along every out-edge of u in the active
// view, tagging the events with source u and flags — the delete tag of the
// recovery phase (Algorithm 4), which carries no per-edge contribution.
func (e *Engine) EmitAlongEdges(u graph.VertexID, val float64, flags event.Flags) {
	ids, _ := e.outAdj(u)
	for _, dst := range ids {
		e.EmitTo(dst, val, u, flags)
	}
}

// PropagateValue sends x from u along every out-edge using the algorithm's
// Propagate, tagging events with source u and the given flags. Accumulative
// deltas below Epsilon are suppressed at generation (termination). This is
// the inner loop of every compute phase: per edge, one Propagate and one put.
//
// Without a cycle model, an unflagged selective event whose target state
// already dominates it is not emitted: inside a compute phase a selective
// state only improves, so the pop would change nothing. Under a cycle model
// every event is emitted, as the hardware would.
func (e *Engine) PropagateValue(u graph.VertexID, x float64, flags event.Flags) {
	ids, ws := e.outAdj(u)
	if len(ids) == 0 {
		return
	}
	deg, wsum := len(ids), e.view.OutWeightSum(u)
	if e.prune && flags == 0 {
		e.materialize()
		for i, dst := range ids {
			val := e.alg.Propagate(u, x, ws[i], deg, wsum)
			if cur := e.state[dst]; e.alg.Reduce(cur, val) != cur {
				e.EmitTo(dst, val, u, 0)
			}
		}
		return
	}
	for i, dst := range ids {
		val := e.alg.Propagate(u, x, ws[i], deg, wsum)
		if e.acc && math.Abs(val) <= e.eps {
			continue
		}
		e.EmitTo(dst, val, u, flags)
	}
}

// ComputeHandler returns the regular computation phase of Algorithm 1, with
// JetStream's two extensions folded in: a vertex receiving a request-flagged
// event propagates even when its state does not change (§3.5), and under
// dependency tracking a state change records the contributing source (§5.2).
func (e *Engine) ComputeHandler() Handler {
	if e.computeH == nil {
		e.computeH = e.newComputeHandler()
	}
	return e.computeH
}

func (e *Engine) newComputeHandler() Handler {
	if e.alg.Class() == algo.Accumulative {
		return func(ev event.Event) {
			v := ev.Target
			old := e.ReadVertex(v)
			e.WriteVertex(v, e.alg.Reduce(old, ev.Value))
			// Forward the (coalesced) incoming delta, transformed per edge.
			e.PropagateValue(v, ev.Value, 0)
		}
	}
	return func(ev event.Event) {
		v := ev.Target
		old := e.ReadVertex(v)
		nw := e.alg.Reduce(old, ev.Value)
		changed := nw != old
		if changed {
			e.WriteVertex(v, nw)
			e.SetDep(v, ev.Source)
		}
		if changed || ev.IsRequest() {
			e.PropagateValue(v, nw, 0)
		}
	}
}

// RunPhase drains the queue to empty under h, handling drain rounds, slice
// swaps and timing. It is one scheduler phase (§4.3).
func (e *Engine) RunPhase(h Handler) {
	seq, p0 := e.beginPhase()
	for {
		for !e.q.Empty() {
			e.drainRound(h)
		}
		if !e.loadNextSlice() {
			break
		}
	}
	e.endPhase(seq, p0)
}

// beginPhase counts a scheduler phase and opens its trace span; endPhase
// closes the span with the number of events the phase processed.
func (e *Engine) beginPhase() (seq, p0 uint64) {
	e.st.Phases++
	if e.ob != nil {
		seq = e.ob.nextSeq()
		p0 = e.st.EventsProcessed
		e.ob.Tr.Trace(obs.TraceEvent{Kind: obs.KindPhaseStart, Seq: seq, Worker: -1, A: e.st.Phases})
	}
	return seq, p0
}

func (e *Engine) endPhase(seq, p0 uint64) {
	if e.ob != nil {
		e.ob.Tr.Trace(obs.TraceEvent{Kind: obs.KindPhaseEnd, Seq: seq, Worker: -1,
			A: e.st.Phases, B: e.st.EventsProcessed - p0})
	}
}

// drainRound runs one drain round of the sequential queue under h, charging
// each row batch and the round overhead to the timing model.
func (e *Engine) drainRound(h Handler) {
	e.q.DrainRound(func(batch []event.Event) {
		e.batchTouched = e.batchTouched[:0]
		e.batchWritten = 0
		e.batchFetches = e.batchFetches[:0]
		e.batchGenT = e.batchGenT[:0]
		for _, ev := range batch {
			e.st.EventsProcessed++
			if e.trace != nil {
				e.trace(ev)
			}
			h(ev)
		}
		if e.tm != nil {
			e.tm.Batch(e.batchTouched, e.batchWritten, e.batchFetches, e.batchGenT)
		}
	})
	if e.tm != nil {
		e.tm.RoundOverhead()
	}
}

// loadNextSlice swaps in the next slice with pending cross-slice events,
// charging the off-chip spill traffic. Returns false when nothing is
// pending anywhere.
func (e *Engine) loadNextSlice() bool {
	if e.part == nil {
		return false
	}
	for i := 1; i <= e.part.K; i++ {
		s := (e.active + i) % e.part.K
		if len(e.pending[s]) == 0 {
			continue
		}
		evs := e.pending[s]
		e.pending[s] = nil
		e.active = s
		if e.tm != nil {
			e.tm.Spill(2 * len(evs)) // written at emit time, read back now
		}
		for _, ev := range evs {
			e.q.Insert(ev)
		}
		return true
	}
	return false
}

// ChargeSetup charges phase-setup work performed outside a drain round (the
// Stream Reader and Impact Buffer activity between phases, §4.5). touched
// lists vertex states read and fetches lists adjacency ranges scanned; the
// events emitted since the last charge are taken from the engine's own
// recording.
func (e *Engine) ChargeSetup(touched []graph.VertexID, fetches []EdgeFetch) {
	if e.tm != nil {
		e.tm.Batch(touched, 0, fetches, e.batchGenT)
	}
	e.batchGenT = e.batchGenT[:0]
}

// ChargeStreamRead charges the Stream Reader's sequential scan of n edge
// updates from the host-written batch in memory.
func (e *Engine) ChargeStreamRead(n int) {
	if e.tm != nil {
		e.tm.StreamRead(n)
	}
}

// ChargeSpill charges an off-chip round trip of n event records (the Impact
// Buffer writing its list out and reading it back, §4.5).
func (e *Engine) ChargeSpill(n int) {
	if e.tm != nil {
		e.tm.Spill(n)
	}
}

// ReleaseBuffers drops the queues' overflow buffers, which otherwise stay at
// the largest phase's peak (queue.Coalescing.ReleaseOverflow). Call it
// between phases.
func (e *Engine) ReleaseBuffers() {
	e.q.ReleaseOverflow()
	if e.run != nil {
		e.run.sq.ReleaseOverflow()
	}
}

// Repartition recomputes the slice assignment against the current graph
// version. §4.7: "the partitions may not remain optimal as the graph
// continues to evolve. To reduce the fraction of edge-cuts, we can
// periodically re-partition the graphs... without affecting the JetStream
// workflow." It must be called between phases (no pending cross-slice
// events); it returns the new edge cut, or -1 when slicing is off.
func (e *Engine) Repartition() int {
	if e.part == nil {
		return -1
	}
	for s := range e.pending {
		if len(e.pending[s]) != 0 {
			panic("engine: Repartition with pending cross-slice events")
		}
	}
	e.part = graph.PartitionGraph(e.csr, e.part.K)
	e.active = 0
	return e.part.Cut
}

// SetTrace installs fn as the processed-event observer (nil to remove). While
// a trace is installed the engine runs sequentially, so the observed order is
// the deterministic drain order.
func (e *Engine) SetTrace(fn func(event.Event)) { e.trace = fn }

// SeedInitialEvents loads the algorithm's initial events through the
// Initializer (step 0 of §4.6.1), charging the sequential memory scan.
func (e *Engine) SeedInitialEvents() {
	evs := e.alg.InitialEvents(e.csr)
	if e.tm != nil {
		e.tm.StreamRead(len(evs))
	}
	for _, ev := range evs {
		e.Emit(ev)
	}
}

// ResetState returns every vertex to Identity and clears dependencies; used
// for cold starts.
func (e *Engine) ResetState() {
	e.materialize()
	for i := range e.state {
		e.state[i] = e.alg.Identity()
	}
	for i := range e.dep {
		e.dep[i] = event.NoSource
	}
}

// RunToConvergence performs a full static evaluation from scratch — the
// GraphPulse baseline (and JetStream's initial evaluation).
func (e *Engine) RunToConvergence() {
	e.ResetState()
	e.SeedInitialEvents()
	e.RunCompute()
}
