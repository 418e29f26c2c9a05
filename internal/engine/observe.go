package engine

import (
	"strconv"

	"jetstream/internal/graph"
	"jetstream/internal/mem"
	"jetstream/internal/noc"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

// Obs bundles the engine's observability sinks: a metrics registry for the
// labeled per-worker / per-component series and a Tracer for event-level
// hooks. It is attached with Engine.SetObs and shared by the core scheduler
// and the host session so the whole pipeline exports into one registry.
//
// Attribution contract: per-worker counters are published at phase and batch
// boundaries (never per event), so the hot path pays nothing. The engine
// keeps a published-baseline copy of its stats sink; FlushObs attributes the
// un-published residual — work done on the sequential path — to worker 0,
// while the parallel merge attributes each worker's private counters to its
// own series. At every flush boundary the per-worker sums therefore equal
// the global stats.Counters deltas exactly (the conservation law the metrics
// tests assert).
type Obs struct {
	Reg *obs.Registry
	Tr  obs.Tracer

	phaseSeq uint64
	workers  []*workerObs

	queueLive *obs.Gauge
	queueHigh *obs.Max

	// Degree-adaptive adjacency representation mix (see graph.CSR
	// RepresentationMix), refreshed at every flush boundary.
	inlineOut *obs.Gauge
	inlineIn  *obs.Gauge

	// Layout work of the delta mutation layer (graph.CSR LayoutStats),
	// refreshed at the same boundary; layoutPub is the last published reading
	// the counters advance from.
	relocations *obs.Counter
	relayouts   *obs.Counter
	undoRecords *obs.Counter
	undoRebuilt *obs.Counter
	edgeSlots   *obs.Gauge
	deadSlots   *obs.Gauge
	layoutPub   graph.LayoutStats

	pairs  *noc.Matrix
	pairsK int

	// Which path each compute phase took (RunCompute): entirely on the
	// calling goroutine, or handed to the PE workers.
	phasesCaller *obs.Counter
	phasesFanout *obs.Counter
}

// workerObs holds one worker's registered series.
type workerObs struct {
	processed *obs.Counter
	coalesced *obs.Counter
	generated *obs.Counter
	forwarded *obs.Counter
	rounds    *obs.Counter
	idleSpins *obs.Counter
	shardHigh *obs.Max
}

// NewObs builds an Obs over reg and tr. tr may be nil (no tracing).
func NewObs(reg *obs.Registry, tr obs.Tracer) *Obs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tr == nil {
		tr = obs.Nop
	}
	return &Obs{
		Reg:       reg,
		Tr:        tr,
		queueLive: reg.Gauge("jetstream_queue_live_events"),
		queueHigh: reg.Max("jetstream_queue_highwater"),
		inlineOut: reg.Gauge("jetstream_graph_inline_vertices", obs.L("dir", "out")),
		inlineIn:  reg.Gauge("jetstream_graph_inline_vertices", obs.L("dir", "in")),

		relocations: reg.Counter("jetstream_graph_relocations_total"),
		relayouts:   reg.Counter("jetstream_graph_relayouts_total"),
		undoRecords: reg.Counter("jetstream_graph_undo_records_total"),
		undoRebuilt: reg.Counter("jetstream_graph_undo_rebuilds_total"),
		edgeSlots:   reg.Gauge("jetstream_graph_edge_slots"),
		deadSlots:   reg.Gauge("jetstream_graph_dead_slots"),

		phasesCaller: reg.Counter("jetstream_compute_phases_total", obs.L("mode", "caller")),
		phasesFanout: reg.Counter("jetstream_compute_phases_total", obs.L("mode", "fanout")),
	}
}

// nextSeq returns a monotonic sequence number for trace events emitted from
// the engine thread.
func (o *Obs) nextSeq() uint64 {
	o.phaseSeq++
	return o.phaseSeq
}

// worker returns worker i's series, registering them on first use. Called
// only from the engine thread (flush and merge points), never from workers.
func (o *Obs) worker(i int) *workerObs {
	for len(o.workers) <= i {
		id := strconv.Itoa(len(o.workers))
		l := obs.L("worker", id)
		o.workers = append(o.workers, &workerObs{
			processed: o.Reg.Counter("jetstream_worker_events_processed_total", l),
			coalesced: o.Reg.Counter("jetstream_worker_events_coalesced_total", l),
			generated: o.Reg.Counter("jetstream_worker_events_generated_total", l),
			forwarded: o.Reg.Counter("jetstream_worker_events_forwarded_total", l),
			rounds:    o.Reg.Counter("jetstream_worker_rounds_total", l),
			idleSpins: o.Reg.Counter("jetstream_worker_idle_spins_total", l),
			shardHigh: o.Reg.Max("jetstream_worker_shard_highwater", l),
		})
	}
	return o.workers[i]
}

// pairMatrix returns the k-port NoC transfer matrix, creating it and
// registering a per-pair series on first use.
func (o *Obs) pairMatrix(k int) *noc.Matrix {
	if o.pairs == nil || o.pairsK != k {
		o.pairs = noc.NewMatrix(k)
		o.pairsK = k
		m := o.pairs
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				src, dst := i, j
				o.Reg.CounterFunc("jetstream_noc_pair_events_total",
					func() uint64 { return m.Load(src, dst) },
					obs.L("src", strconv.Itoa(src)), obs.L("dst", strconv.Itoa(dst)))
			}
		}
	}
	return o.pairs
}

// WorkerStats is one worker's published totals, for structured snapshots.
// IdleSpins counts fanned-out supersteps in which the worker had nothing to
// drain and only waited at the barrier.
type WorkerStats struct {
	Processed      uint64
	Coalesced      uint64
	Generated      uint64
	Forwarded      uint64
	Rounds         uint64
	IdleSpins      uint64
	ShardHighWater uint64
}

// WorkerSnapshots returns the published per-worker totals.
func (o *Obs) WorkerSnapshots() []WorkerStats {
	out := make([]WorkerStats, len(o.workers))
	for i, w := range o.workers {
		out[i] = WorkerStats{
			Processed:      w.processed.Load(),
			Coalesced:      w.coalesced.Load(),
			Generated:      w.generated.Load(),
			Forwarded:      w.forwarded.Load(),
			Rounds:         w.rounds.Load(),
			IdleSpins:      w.idleSpins.Load(),
			ShardHighWater: w.shardHigh.Load(),
		}
	}
	return out
}

// PairSnapshot returns the NoC transfer matrix as (port count, row-major
// cells); k is 0 when no parallel phase has run.
func (o *Obs) PairSnapshot() (int, []uint64) {
	if o.pairs == nil {
		return 0, nil
	}
	return o.pairsK, o.pairs.Snapshot()
}

// ComputePhases returns how many compute phases ran entirely on the calling
// goroutine and how many fanned out to the PE workers.
func (o *Obs) ComputePhases() (caller, fanout uint64) {
	return o.phasesCaller.Load(), o.phasesFanout.Load()
}

// QueuePeak returns the published queue high-water mark.
func (o *Obs) QueuePeak() uint64 { return o.queueHigh.Load() }

// SetObs attaches the observability sinks (nil detaches). The engine baselines
// its stats sink so FlushObs attributes only work done after attachment.
func (e *Engine) SetObs(o *Obs) {
	e.ob = o
	if o == nil {
		e.q.SetObs(nil, nil)
		return
	}
	e.obPub = *e.st
	e.q.SetObs(o.queueLive, o.queueHigh)
	if e.tm != nil {
		e.tm.Observe(o.Reg)
	}
}

// Obs returns the attached observability sinks (nil when uninstrumented).
func (e *Engine) Obs() *Obs { return e.ob }

// Channels returns the cycle model's per-channel DRAM traffic, or nil when
// timing is off.
func (e *Engine) Channels() []mem.ChannelCounts {
	if e.tm == nil {
		return nil
	}
	return e.tm.Channels()
}

// FlushObs publishes the stats-sink delta accumulated since the last flush.
// Sequential-path work has no worker identity, so the residual is attributed
// to worker 0 — the parallel merge has already attributed and baselined each
// worker's share, so nothing is counted twice. Call at operation boundaries
// (end of batch, end of initial run).
func (e *Engine) FlushObs() {
	if e.ob == nil {
		return
	}
	d := *e.st
	d.Sub(&e.obPub)
	w := e.ob.worker(0)
	w.processed.Add(d.EventsProcessed)
	w.coalesced.Add(d.EventsCoalesced)
	w.generated.Add(d.EventsGenerated)
	w.rounds.Add(d.Rounds)
	e.obPub = *e.st
	e.ob.queueLive.Set(int64(e.q.Len()))
	e.ob.queueHigh.Observe(uint64(e.q.HighWater()))
	out, in, _ := e.csr.RepresentationMix()
	e.ob.inlineOut.Set(int64(out))
	e.ob.inlineIn.Set(int64(in))
	ls := e.csr.LayoutStats()
	e.ob.relocations.Add(ls.Relocations - e.ob.layoutPub.Relocations)
	e.ob.relayouts.Add(ls.Relayouts - e.ob.layoutPub.Relayouts)
	e.ob.undoRecords.Add(ls.UndoRecords - e.ob.layoutPub.UndoRecords)
	e.ob.undoRebuilt.Add(ls.UndoRebuilt - e.ob.layoutPub.UndoRebuilt)
	e.ob.edgeSlots.Set(int64(ls.EdgeSlots))
	e.ob.deadSlots.Set(int64(ls.DeadSlots))
	e.ob.layoutPub = ls
}

// countComputePhase records which path a finished compute phase took.
func (e *Engine) countComputePhase(fanned bool) {
	if e.ob == nil {
		return
	}
	if fanned {
		e.ob.phasesFanout.Inc()
	} else {
		e.ob.phasesCaller.Inc()
	}
}

// publishWorker attributes one parallel worker's phase counters to its
// series, advancing the published baseline so FlushObs does not re-attribute
// them to worker 0.
func (e *Engine) publishWorker(id int, st *stats.Counters, forwarded uint64, sent []uint64, shardHigh int, idle uint64) {
	o := e.ob
	e.obPub.Add(st)
	w := o.worker(id)
	w.processed.Add(st.EventsProcessed)
	w.coalesced.Add(st.EventsCoalesced)
	w.generated.Add(st.EventsGenerated)
	w.forwarded.Add(forwarded)
	w.rounds.Add(st.Rounds)
	w.idleSpins.Add(idle)
	w.shardHigh.Observe(uint64(shardHigh))
	if len(sent) > 0 {
		m := o.pairMatrix(len(sent))
		for d, n := range sent {
			if n > 0 {
				m.Add(id, d, n)
			}
		}
	}
	o.Tr.Trace(obs.TraceEvent{Kind: obs.KindWorkerDrain, Seq: o.nextSeq(), Worker: id,
		A: st.EventsProcessed, B: forwarded})
}
