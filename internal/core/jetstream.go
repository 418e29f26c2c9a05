// Package core implements JetStream — the paper's primary contribution: a
// streaming extension of the GraphPulse event-driven accelerator that
// incrementally re-evaluates a query after a batch of edge insertions and
// deletions instead of recomputing from scratch.
//
// The flow follows the paper exactly:
//
//   - Edge insertions become ordinary events carrying the contribution the
//     edge would have delivered (Algorithm 2, §3.3).
//   - For selective (monotonic) algorithms, deletions trigger a recovery
//     phase that tags and resets every potentially impacted vertex
//     (Algorithm 4), followed by reapproximation request events along the
//     impacted vertices' in-edges, then a regular compute phase on the new
//     graph (Algorithm 5). The Value-Aware (§5.1) and Dependency-Aware
//     (§5.2) optimizations prune the tagged set.
//   - For accumulative algorithms, deletions are negated by events of
//     negative polarity; vertices with mutated out-edges are turned into
//     sinks of an intermediate graph while their old contributions are
//     rolled back, then all their edges are re-inserted (Algorithm 6,
//     Fig 5).
package core

import (
	"fmt"
	"math"

	"jetstream/internal/algo"
	"jetstream/internal/engine"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

// OptLevel selects the delete-propagation pruning strategy for selective
// algorithms (paper §5). Accumulative algorithms ignore it.
type OptLevel int

const (
	// OptBase tags every reachable non-Identity vertex (Algorithm 4 as
	// written) — correct but, as §6.2 notes, it "tags too many vertices,
	// often leading to work comparable to full recomputation".
	OptBase OptLevel = iota
	// OptVAP discards a delete whose carried contribution does not dominate
	// the receiver's state (Value-Aware Propagation, §5.1).
	OptVAP
	// OptDAP resets a vertex only when the delete arrives from the vertex
	// it actually depends on (Dependency-Aware Propagation, §5.2);
	// coalescing is disabled during recovery so distinct sources survive.
	OptDAP
)

func (o OptLevel) String() string {
	switch o {
	case OptBase:
		return "base"
	case OptVAP:
		return "vap"
	case OptDAP:
		return "dap"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(o))
	}
}

// Config configures a JetStream instance.
type Config struct {
	Engine engine.Config
	Opt    OptLevel
	// Slices partitions the vertex space when > 1 (for graphs exceeding the
	// queue capacity, §4.7).
	Slices int

	// Ablation switches (off in the real design; the harness measures their
	// cost to quantify the design choices).

	// NoCoalesce disables event coalescing everywhere, removing the queue's
	// central optimization.
	NoCoalesce bool
	// TwoPhaseAccumulate uses the paper-literal Algorithm 6 for accumulative
	// deletion recovery: full-magnitude negation events for every out-edge
	// of a dirty vertex, a converging rollback phase, then full-magnitude
	// re-insertion events — instead of fusing the negate/re-add pairs into
	// net events at the Stream Reader.
	TwoPhaseAccumulate bool
	// RebuildGraph applies each batch by rebuilding the whole CSR (the
	// paper's "write a new CSR and swap the pointer" host model) instead of
	// the incremental slack-based mutation. The event flow is identical
	// either way; the switch exists to measure the host-side cost difference
	// and as the reference side of the differential tests.
	RebuildGraph bool
}

// DefaultConfig returns the paper's configuration with the DAP optimization,
// which Fig 12 shows is the strongest across all four selective workloads.
func DefaultConfig() Config {
	cfg := Config{Engine: engine.DefaultConfig(), Opt: OptDAP}
	cfg.Engine.EventMode = event.ModeJetStreamDAP
	cfg.Engine.VertexBytes = 12 // 8B state + 4B dependency field
	return cfg
}

// ConfigWithOpt returns DefaultConfig adjusted for the given optimization
// level (smaller events and vertex records below DAP).
func ConfigWithOpt(opt OptLevel) Config {
	cfg := DefaultConfig()
	cfg.Opt = opt
	if opt != OptDAP {
		cfg.Engine.EventMode = event.ModeJetStream
		cfg.Engine.VertexBytes = 8
	}
	return cfg
}

// JetStream evaluates one standing query over a streaming graph.
type JetStream struct {
	cfg Config
	eng *engine.Engine
	alg algo.Algorithm
	g   *graph.CSR
	st  *stats.Counters

	// impact is the Impact Buffer (§4.5): ids of vertices reset during the
	// current recovery phase, revisited to issue request events.
	impact []graph.VertexID

	// setup records what a phase's setup scan read, for the cycle model.
	setup setupTrace

	// cycleBase offsets the engine's cycle counter; a restored checkpoint
	// sets it to the cycles accumulated before the process died so cumulative
	// totals continue across restarts.
	cycleBase uint64

	// tr receives scheduler-level trace events (watchdog checks, fallback
	// triggers); obs.Nop until Instrument attaches a real tracer.
	tr    obs.Tracer
	trSeq uint64
}

// setupTrace is the record of one phase-setup scan (the Stream Reader and
// Impact Buffer activity between phases, §4.5): the vertex states it read and
// the adjacency ranges it scanned, which is what engine.ChargeSetup charges.
// Only a cycle model reads it, so it records only when the engine has one
// (on, fixed in New); the buffers are reused from scan to scan.
type setupTrace struct {
	on      bool
	touched []graph.VertexID
	fetches []engine.EdgeFetch
}

func (s *setupTrace) touch(v graph.VertexID) {
	if s.on {
		s.touched = append(s.touched, v)
	}
}

func (s *setupTrace) fetch(offset uint64, count int) {
	if s.on {
		s.fetches = append(s.fetches, engine.EdgeFetch{Offset: offset, Count: count})
	}
}

// charge ends a scan: it hands the record to the engine's cycle model,
// together with the events the engine saw emitted since the last charge, and
// starts the next one empty.
func (s *setupTrace) charge(e *engine.Engine) {
	e.ChargeSetup(s.touched, s.fetches)
	s.touched, s.fetches = s.touched[:0], s.fetches[:0]
}

// New builds a JetStream instance for query alg over initial graph g. st may
// be nil. Call RunInitial before the first ApplyBatch.
func New(g *graph.CSR, alg algo.Algorithm, cfg Config, st *stats.Counters) *JetStream {
	if st == nil {
		st = &stats.Counters{}
	}
	if alg.Class() == algo.Accumulative && cfg.Engine.EventMode == event.ModeJetStreamDAP {
		// Accumulative algorithms never use dependency tracking (§3.5), so
		// they keep the smaller JetStream event and vertex footprint even
		// when the caller asked for the DAP configuration.
		cfg.Engine.EventMode = event.ModeJetStream
		cfg.Engine.VertexBytes = 8
	}
	var opts []engine.Option
	if cfg.Opt == OptDAP && alg.Class() == algo.Selective {
		opts = append(opts, engine.WithDependencyTracking())
	}
	if cfg.Slices > 1 {
		opts = append(opts, engine.WithPartition(cfg.Slices))
	}
	j := &JetStream{
		cfg: cfg,
		eng: engine.New(g, alg, cfg.Engine, st, opts...),
		alg: alg,
		g:   g,
		st:  st,
	}
	if cfg.NoCoalesce {
		j.eng.Queue().SetCoalescing(false)
	}
	j.setup.on = j.eng.Timing() != nil
	j.tr = obs.Nop
	return j
}

// Instrument attaches observability: metrics series register on reg and
// trace events flow to tr (nil for metrics only). Attach before RunInitial
// so the per-worker attribution baseline covers the whole run.
func (j *JetStream) Instrument(reg *obs.Registry, tr obs.Tracer) {
	if tr == nil {
		tr = obs.Nop
	}
	j.tr = tr
	j.eng.SetObs(engine.NewObs(reg, tr))
}

// FlushObs publishes pending per-worker metric attributions (see
// engine.FlushObs). The scheduler calls it at operation boundaries; exposed
// for hosts that drive the engine directly.
func (j *JetStream) FlushObs() { j.eng.FlushObs() }

func (j *JetStream) trace(e obs.TraceEvent) {
	j.trSeq++
	e.Seq = j.trSeq
	e.Worker = -1
	j.tr.Trace(e)
}

// setCoalescing toggles queue coalescing, respecting the NoCoalesce
// ablation (which pins it off).
func (j *JetStream) setCoalescing(on bool) {
	if j.cfg.NoCoalesce {
		on = false
	}
	j.eng.Queue().SetCoalescing(on)
}

// Graph returns the current graph version.
func (j *JetStream) Graph() *graph.CSR { return j.g }

// State returns the live vertex states.
func (j *JetStream) State() []float64 { return j.eng.State() }

// Stats returns the counter sink.
func (j *JetStream) Stats() *stats.Counters { return j.st }

// Cycles returns the accumulated accelerator cycles (including any base
// carried over from a restored checkpoint).
func (j *JetStream) Cycles() uint64 { return j.cycleBase + j.eng.Cycles() }

// SetCycleBase sets the cycle offset carried over from a checkpoint.
func (j *JetStream) SetCycleBase(c uint64) { j.cycleBase = c }

// Engine exposes the underlying engine (used by the experiment harness).
func (j *JetStream) Engine() *engine.Engine { return j.eng }

// RunInitial performs the initial static evaluation (identical to
// GraphPulse, §4.6.1).
func (j *JetStream) RunInitial() {
	j.eng.RunToConvergence()
	j.eng.FlushObs()
}

// ApplyBatch incrementally updates the query results for graph version
// G+Δ. On return the instance holds the new graph version and the converged
// states for it.
func (j *JetStream) ApplyBatch(b graph.Batch) error {
	var ng *graph.CSR
	var err error
	if j.cfg.RebuildGraph {
		ng, err = j.g.Apply(b)
	} else {
		ng, err = j.g.ApplyDeltaCfg(b, graph.DefaultDeltaConfig())
	}
	if err != nil {
		return err
	}
	if j.alg.Class() == algo.Accumulative {
		if j.cfg.TwoPhaseAccumulate {
			j.applyAccumulativeTwoPhase(b, ng)
		} else {
			j.applyAccumulative(b, ng)
		}
	} else {
		j.applySelective(b, ng)
	}
	j.g = ng
	j.eng.FlushObs()
	return nil
}

// ---------------------------------------------------------------------------
// Selective algorithms: Algorithm 5
// ---------------------------------------------------------------------------

func (j *JetStream) applySelective(b graph.Batch, ng *graph.CSR) {
	j.impact = j.impact[:0]

	// Phase 1 — ProcessDeletesSelective: the Stream Reader converts each
	// deleted edge into a delete event for its destination (§4.6.2 "Delete
	// Setup": the source state is read but not updated; the generation unit
	// computes the propagated value used by VAP).
	j.eng.ChargeStreamRead(len(b.Deletes))
	if j.cfg.Opt == OptDAP {
		j.setCoalescing(false)
	}
	for _, de := range b.Deletes {
		val := j.alg.Identity()
		if j.cfg.Opt == OptVAP {
			// The contribution the deleted edge used to deliver, computed
			// from the source's previous converged state.
			j.st.VertexReads++
			j.setup.touch(de.Src)
			val = j.alg.Propagate(de.Src, j.eng.PeekVertex(de.Src), de.Weight,
				j.g.OutDegree(de.Src), j.g.OutWeightSum(de.Src))
		}
		j.eng.EmitTo(de.Dst, val, de.Src, event.FlagDelete)
	}
	j.setup.charge(j.eng)

	// Phase 2 — ResetImpacted: propagate the delete tags on the previous
	// graph version until no delete events remain.
	j.eng.RunPhase(j.deleteHandler())
	if j.cfg.Opt == OptDAP {
		j.setCoalescing(true)
	}

	// Phase 3 — Reapproximate: revisit the Impact Buffer and ask each
	// impacted vertex's in-neighbors to re-propagate their states (§3.4).
	// In-edges of the new version: every surviving in-neighbor is asked;
	// inserted in-edges are covered by the insertion events below.
	j.eng.ChargeSpill(2 * len(j.impact)) // Impact Buffer round trip (§4.5)
	j.requestImpacted(ng)

	// Phase 4 — ProcessInsertions (Algorithm 2): one event per inserted
	// edge, carrying the contribution computed from the source's previous
	// state. These coalesce with pending request events by OR-ing the flag
	// bit (§3.5).
	j.processInsertions(b.Inserts, ng)

	// Phase 5 — switch to the new graph structure and run the regular
	// computation flow to convergence.
	j.eng.SetGraph(ng, nil)
	j.eng.RunCompute()
}

// requestImpacted is the Reapproximate step: for every vertex in the Impact
// Buffer, re-seed its initial-event contribution and ask each of its
// in-neighbors in ng for its contribution.
//
// Under a cycle model the request is the paper's: a request event to each
// in-neighbor, which then re-propagates along its whole out-adjacency. Without
// one the host answers it along the asking edge instead — the in-neighbor's
// current contribution, sent straight to v. An in-neighbor still at Identity
// was itself reset; its own compute pass will reach v.
func (j *JetStream) requestImpacted(ng *graph.CSR) {
	identity := j.alg.Identity()
	inRegion := uint64(ng.EdgeSlots()) // in-CSR lives after the out-CSR (incl. slack)
	for _, v := range j.impact {
		// Re-seed the vertex's initial-event contribution: the converged
		// state is the fixpoint over edge contributions AND initial events,
		// and a reset erased the latter (e.g. CC's self-label, or the query
		// root under the Base policy). Requests can only restore the former.
		if val, ok := j.alg.InitialEventFor(v, ng); ok {
			j.eng.EmitTo(v, val, event.NoSource, 0)
		}
		srcs, ws := ng.InAdj(v)
		if len(srcs) == 0 {
			continue
		}
		j.st.EdgeReads += uint64(len(srcs))
		j.st.RequestsIssued += uint64(len(srcs))
		if j.setup.on {
			j.setup.fetch(inRegion+ng.InEdgeOffset(v), len(srcs))
			for _, src := range srcs {
				j.eng.EmitTo(src, identity, event.NoSource, event.FlagRequest)
			}
			continue
		}
		ws = ws[:len(srcs)]
		for i, src := range srcs {
			j.st.VertexReads++
			x := j.eng.PeekVertex(src)
			if x == identity {
				continue
			}
			j.eng.EmitTo(v, j.alg.Propagate(src, x, ws[i], ng.OutDegree(src), ng.OutWeightSum(src)), src, 0)
		}
	}
	j.setup.charge(j.eng)
}

// deleteHandler implements the Apply/Propagate logic of the recovery phase
// (Algorithm 4 with the §5 pruning extensions).
func (j *JetStream) deleteHandler() engine.Handler {
	identity := j.alg.Identity()
	return func(ev event.Event) {
		v := ev.Target
		cur := j.eng.ReadVertex(v)
		if cur == identity {
			// Already tagged (or never reached): do not propagate again.
			j.st.DeletesDiscarded++
			return
		}
		switch j.cfg.Opt {
		case OptVAP:
			// The deleted contribution cannot have set v's state unless it
			// dominates it (§5.1).
			if !algo.Dominates(j.alg, ev.Value, cur) {
				j.st.DeletesDiscarded++
				return
			}
		case OptDAP:
			// Only the recorded dependency source may reset v (§5.2).
			if j.eng.Dep()[v] != ev.Source {
				j.st.DeletesDiscarded++
				return
			}
		}
		// Reset logic (§4.4): tag the vertex, record it in the Impact
		// Buffer, and propagate the delete along its out-edges using the
		// pre-reset state.
		j.eng.WriteVertex(v, identity)
		j.eng.SetDep(v, event.NoSource)
		j.st.VerticesReset++
		j.impact = append(j.impact, v)

		if j.cfg.Opt == OptVAP {
			// The delete carries what v used to contribute along each edge.
			j.eng.PropagateValue(v, cur, event.FlagDelete)
		} else {
			j.eng.EmitAlongEdges(v, identity, event.FlagDelete)
		}
	}
}

// processInsertions queues one event per inserted edge (Algorithm 2). The
// contribution uses the source's current approximate state and the *new*
// graph's degree context (only degree-dependent algorithms care, and they
// take the accumulative path instead).
func (j *JetStream) processInsertions(inserts []graph.Edge, ng *graph.CSR) {
	j.eng.ChargeStreamRead(len(inserts))
	for _, e := range inserts {
		j.st.VertexReads++
		j.setup.touch(e.Src)
		val := j.alg.Propagate(e.Src, j.eng.PeekVertex(e.Src), e.Weight,
			ng.OutDegree(e.Src), ng.OutWeightSum(e.Src))
		j.eng.EmitTo(e.Dst, val, e.Src, 0)
	}
	j.setup.charge(j.eng)
}

// ---------------------------------------------------------------------------
// Accumulative algorithms: Algorithm 6 and Fig 5
// ---------------------------------------------------------------------------

func (j *JetStream) applyAccumulative(b graph.Batch, ng *graph.CSR) {
	// Any vertex whose out-adjacency changes sees the weight (1/deg) of all
	// its out-edges change, so the whole adjacency is deleted and re-added
	// (Fig 5): collect the dirty sources.
	dirty := map[graph.VertexID]bool{}
	for _, e := range b.Deletes {
		dirty[e.Src] = true
	}
	for _, e := range b.Inserts {
		dirty[e.Src] = true
	}

	// Deterministic iteration order over the dirty set.
	order := make([]graph.VertexID, 0, len(dirty))
	for v := range dirty {
		order = append(order, v)
	}
	sortVertexIDs(order)

	// Phase 1 — ProcessDeleteCumulative (Algorithm 3) fused with the
	// re-insertions of Fig 5(c): each dirty vertex's previous contribution
	// (state*Propagate against the old degree) is negated and its new
	// contribution (same state, new degree) added. Because contributions
	// are additive and order-free (the Reordering Property), the negate and
	// re-add events for each destination coalesce at creation into one net
	// event — for the kept edges of a dirty vertex that net delta is the
	// tiny 1/olddeg-vs-1/newdeg difference, so the rollback ripple stays
	// proportional to the actual structural change rather than to the full
	// adjacency. This is the event-coalescing advantage §1 highlights over
	// software frameworks, applied at the Stream Reader.
	scanned := 0
	net := map[graph.VertexID]float64{}
	baseState := make([]float64, 0, len(order))
	// emitNet sends dst's net delta, once: the entry is consumed.
	emitNet := func(dst graph.VertexID) {
		if val, ok := net[dst]; ok {
			delete(net, dst)
			if val != 0 {
				j.eng.EmitTo(dst, val, event.NoSource, 0)
			}
		}
	}
	for _, u := range order {
		j.st.VertexReads++
		j.setup.touch(u)
		state := j.eng.PeekVertex(u)
		baseState = append(baseState, state)
		oldIDs, oldWs := j.g.OutAdj(u)
		newIDs, newWs := ng.OutAdj(u)
		oldDeg, oldWsum := len(oldIDs), j.g.OutWeightSum(u)
		newDeg, newWsum := len(newIDs), ng.OutWeightSum(u)
		clear(net)
		if oldDeg > 0 {
			scanned += oldDeg
			j.setup.fetch(j.g.EdgeOffset(u), oldDeg)
			j.st.EdgeReads += uint64(oldDeg)
			for i, dst := range oldIDs {
				net[dst] -= j.alg.Propagate(u, state, oldWs[i], oldDeg, oldWsum)
			}
		}
		if newDeg > 0 {
			scanned += newDeg
			j.setup.fetch(ng.EdgeOffset(u), newDeg)
			j.st.EdgeReads += uint64(newDeg)
			for i, dst := range newIDs {
				net[dst] += j.alg.Propagate(u, state, newWs[i], newDeg, newWsum)
			}
		}
		// Emit net events in the new-adjacency order for determinism.
		for _, dst := range newIDs {
			emitNet(dst)
		}
		for _, dst := range oldIDs {
			emitNet(dst)
		}
	}
	j.eng.ChargeStreamRead(scanned)
	j.setup.charge(j.eng)

	// Phase 2 — compute on the intermediate graph: the new structure with
	// every dirty vertex turned into a sink, which breaks cyclic paths
	// through them while the corrections ripple. (Non-dirty vertices have
	// identical adjacency in both versions, so masking the new CSR is the
	// paper's pointer-adjusted intermediate graph.)
	view := graph.NewView(ng)
	for _, u := range order {
		view.Mask(u)
	}
	j.eng.SetGraph(ng, view)
	j.eng.RunCompute()

	// Phase 3 — while masked, each dirty vertex accumulated deltas it did
	// not forward; forward them now against the new adjacency, exactly as
	// if the events had arrived after the unmask.
	for i, u := range order {
		j.st.VertexReads++
		j.setup.touch(u)
		delta := j.eng.PeekVertex(u) - baseState[i]
		if delta == 0 {
			continue
		}
		ids, ws := ng.OutAdj(u)
		deg, wsum := len(ids), ng.OutWeightSum(u)
		if deg == 0 {
			continue
		}
		j.setup.fetch(ng.EdgeOffset(u), deg)
		j.st.EdgeReads += uint64(deg)
		for k, dst := range ids {
			val := j.alg.Propagate(u, delta, ws[k], deg, wsum)
			if math.Abs(val) <= j.alg.Epsilon() {
				continue
			}
			j.eng.EmitTo(dst, val, event.NoSource, 0)
		}
	}
	j.setup.charge(j.eng)

	// Phase 4 — switch to the (unmasked) new graph and recompute.
	j.eng.SetGraph(ng, nil)
	j.eng.RunCompute()
}

// applyAccumulativeTwoPhase is the paper-literal Algorithm 6 (kept as an
// ablation): negate every out-edge contribution of each dirty vertex
// (Algorithm 3 extended per Fig 5), converge the rollback on the
// intermediate graph, then re-insert all of the dirty vertices' edges and
// converge again. The production path (applyAccumulative) instead fuses each
// negate/re-add pair into one net event, which keeps the ripple proportional
// to the structural change; the experiment harness measures the difference.
func (j *JetStream) applyAccumulativeTwoPhase(b graph.Batch, ng *graph.CSR) {
	dirty := map[graph.VertexID]bool{}
	for _, e := range b.Deletes {
		dirty[e.Src] = true
	}
	for _, e := range b.Inserts {
		dirty[e.Src] = true
	}
	order := make([]graph.VertexID, 0, len(dirty))
	for v := range dirty {
		order = append(order, v)
	}
	sortVertexIDs(order)

	// Phase 1 — negation events against the old degrees.
	j.emitAdjacencies(order, j.g, -1)

	// Phase 2 — rollback on the intermediate graph (dirty vertices are
	// sinks; the old structure is used since only dirty rows differ).
	view := graph.NewView(j.g)
	for _, u := range order {
		view.Mask(u)
	}
	j.eng.SetGraph(j.g, view)
	j.eng.RunCompute()

	// Phase 3 — re-insert every dirty vertex's new adjacency from the
	// rolled-back state.
	j.emitAdjacencies(order, ng, 1)

	// Phase 4 — converge on the new graph.
	j.eng.SetGraph(ng, nil)
	j.eng.RunCompute()
}

// emitAdjacencies is one setup scan of the two-phase ablation: every vertex
// of order sends sign × its full contribution (current state against g's
// degrees) along each of its out-edges in g.
func (j *JetStream) emitAdjacencies(order []graph.VertexID, g *graph.CSR, sign float64) {
	scanned := 0
	for _, u := range order {
		j.st.VertexReads++
		j.setup.touch(u)
		state := j.eng.PeekVertex(u)
		ids, ws := g.OutAdj(u)
		deg, wsum := len(ids), g.OutWeightSum(u)
		if deg == 0 {
			continue
		}
		scanned += deg
		j.setup.fetch(g.EdgeOffset(u), deg)
		j.st.EdgeReads += uint64(deg)
		for i, dst := range ids {
			if val := sign * j.alg.Propagate(u, state, ws[i], deg, wsum); val != 0 {
				j.eng.EmitTo(dst, val, event.NoSource, 0)
			}
		}
	}
	j.eng.ChargeStreamRead(scanned)
	j.setup.charge(j.eng)
}

func sortVertexIDs(v []graph.VertexID) {
	// Insertion sort is fine: dirty sets are batch-sized.
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k-1] > v[k]; k-- {
			v[k-1], v[k] = v[k], v[k-1]
		}
	}
}

// Repartition refreshes the slice assignment against the current graph
// version (§4.7); call it between batches after the graph has drifted. It is
// a no-op without slicing. Returns the new edge cut (or -1).
func (j *JetStream) Repartition() int { return j.eng.Repartition() }

// Verify recomputes the query from scratch on the current graph and returns
// the maximum deviation from the streaming state — a runtime self-check used
// by tests and the CLI's -verify flag.
func (j *JetStream) Verify() float64 {
	ref := algo.Reference(j.alg, j.g)
	return algo.MaxAbsDiff(j.State(), ref)
}

// VerifySample is Verify restricted to a deterministic stride sample of
// roughly sample vertices (sample <= 0 compares all). The reference solve
// still covers the whole graph — sampling bounds only the state read-back and
// comparison, the part that would otherwise stall the accelerator pipeline.
func (j *JetStream) VerifySample(sample int) float64 {
	ref := algo.Reference(j.alg, j.g)
	st := j.State()
	stride := 1
	if sample > 0 && sample < len(st) {
		stride = len(st) / sample
	}
	return algo.MaxAbsDiffStride(st, ref, stride)
}

// ColdStart abandons the incremental approximation and recomputes the query
// from scratch on the current graph version — the GraphPulse cold-start
// baseline (§4.6.1) used here as the recovery of last resort when the
// incremental state is no longer trustworthy. The fallback is counted in the
// stats sink; afterwards the stream resumes incrementally as usual.
func (j *JetStream) ColdStart() {
	j.st.ColdStartFallbacks++
	j.trace(obs.TraceEvent{Kind: obs.KindFallback, A: j.st.ColdStartFallbacks})
	j.Rebuild(j.g)
}

// Rebuild makes g the current graph version and evaluates the query on it
// from scratch — the initial evaluation (§4.6.1) in place of an incremental
// update, for a delta so large that re-deriving everything is the cheaper
// path. It is a choice, not a fallback: nothing is counted or traced beyond
// the evaluation's own work. g must have the current vertex count.
func (j *JetStream) Rebuild(g *graph.CSR) {
	j.g = g
	j.eng.SetGraph(g, nil)
	j.eng.RunToConvergence()
	j.eng.FlushObs()
}

// WatchdogConfig parameterizes the divergence watchdog: every Every batches
// the streaming state is checked against a from-scratch solve, and a
// deviation beyond Epsilon triggers a ColdStart fallback.
type WatchdogConfig struct {
	// Every is the check period in batches; <= 0 disables the watchdog.
	Every int
	// Epsilon is the maximum tolerated deviation. Selective (monotonic)
	// kernels converge exactly, so 0 is sound for them; accumulative kernels
	// accumulate suppressed sub-epsilon deltas (see Tolerance).
	Epsilon float64
	// Sample bounds how many vertices each check compares (0 = all).
	Sample int
}

// Enabled reports whether the watchdog performs any checks.
func (cfg WatchdogConfig) Enabled() bool { return cfg.Every > 0 }

// WatchdogCheck runs the divergence watchdog after batch number batchIndex
// (1-based). When the period elapses it verifies the sampled state and, on
// divergence beyond Epsilon, falls back to a cold-start recompute — after
// which the incremental stream resumes as if the state had never been
// poisoned. It is stateless so a restored checkpoint continues the same check
// cadence from the stored batch count.
func (j *JetStream) WatchdogCheck(cfg WatchdogConfig, batchIndex uint64) (checked bool, div float64, fellBack bool) {
	if !cfg.Enabled() || batchIndex%uint64(cfg.Every) != 0 {
		return false, 0, false
	}
	div = j.VerifySample(cfg.Sample)
	j.trace(obs.TraceEvent{Kind: obs.KindWatchdog, A: batchIndex, B: 1, F: div})
	if div > cfg.Epsilon || math.IsNaN(div) {
		j.ColdStart()
		fellBack = true
	}
	return true, div, fellBack
}

// Tolerance returns an acceptable Verify bound: exact for selective kernels;
// for accumulative kernels the suppressed sub-epsilon deltas accumulate with
// the graph's edge count and the propagation gain 1/(1-damping) over the
// batches applied so far.
func Tolerance(a algo.Algorithm, edges, batches int) float64 {
	if a.Class() == algo.Selective {
		return 0
	}
	if batches < 1 {
		batches = 1
	}
	return a.Epsilon() * 10 * float64(edges) * float64(batches)
}
