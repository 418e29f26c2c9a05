package jetstream

import (
	"expvar"
	"net/http"

	"jetstream/internal/obs"
)

// This file is the observability surface of the public API: structured
// metric snapshots (Metrics), streaming trace callbacks (WithObserver), and
// the Prometheus / expvar exporters a long-running deployment scrapes.

// Observer receives trace events from a running System: batch start/end,
// phase transitions, per-worker drains, cross-worker mail, watchdog checks,
// fallback triggers, DMA retries. Implementations must be safe for
// concurrent use (parallel workers trace without synchronization) and should
// return quickly.
type Observer = obs.Tracer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.TracerFunc

// TraceEvent is one instrumentation event; the meaning of its fields depends
// on Kind.
type TraceEvent = obs.TraceEvent

// TraceKind identifies what a TraceEvent describes.
type TraceKind = obs.Kind

// Trace event kinds.
const (
	TraceBatchStart  = obs.KindBatchStart
	TraceBatchEnd    = obs.KindBatchEnd
	TracePhaseStart  = obs.KindPhaseStart
	TracePhaseEnd    = obs.KindPhaseEnd
	TraceWorkerDrain = obs.KindWorkerDrain
	TraceWorkerMail  = obs.KindWorkerMail
	TraceWatchdog    = obs.KindWatchdog
	TraceFallback    = obs.KindFallback
)

// WithObserver streams trace events to o as the system runs. Metrics
// collection does not require it — every System exports metrics — but the
// observer sees the event-level sequence the aggregated series cannot carry.
func WithObserver(o Observer) Option {
	return func(s *settings) { s.observer = o }
}

// MetricsSchemaVersion is the version of the MetricsSnapshot layout. It
// increments when fields change meaning or disappear; additions keep the
// version.
const MetricsSchemaVersion = 2

// WorkerMetrics is one worker's cumulative share of the engine's work. At
// every operation boundary the per-worker sums over all workers equal the
// corresponding TotalStats counters: sequential-path work is attributed to
// worker 0, parallel-phase work to the worker that performed it.
type WorkerMetrics struct {
	Worker          int
	EventsProcessed uint64
	EventsCoalesced uint64
	EventsGenerated uint64
	// EventsForwarded counts events this worker routed to another worker's
	// shard through its outboxes (the NoC crossbar traffic).
	EventsForwarded uint64
	Rounds          uint64
	// IdleSpins counts supersteps of fanned-out phases in which this worker
	// had nothing to drain and only waited at the barrier. It stays zero for
	// phases that never left the calling goroutine.
	IdleSpins      uint64
	ShardHighWater uint64
}

// ChannelMetrics is one DRAM channel's cumulative traffic (timing model
// only).
type ChannelMetrics struct {
	Channel  int
	Accesses uint64
	RowHits  uint64
	Bytes    uint64
}

// NoCPair is the cumulative event traffic of one (source worker, destination
// worker) crossbar pair.
type NoCPair struct {
	Src, Dst int
	Events   uint64
}

// HistogramSnapshot is a point-in-time copy of a log-2 histogram.
type HistogramSnapshot = obs.HistogramSnapshot

// HistogramBucket is one bucket of a HistogramSnapshot.
type HistogramBucket = obs.Bucket

// MetricsSnapshot is the structured, versioned view of everything the system
// exports — the API replacement for picking through TotalStats by hand.
type MetricsSnapshot struct {
	// SchemaVersion is MetricsSchemaVersion at build time.
	SchemaVersion int
	// Totals is the cumulative counter set (identical to TotalStats).
	Totals Counters
	// Batches is the number of applied batches.
	Batches uint64
	// Workers breaks the event work down per worker; empty slices of Totals
	// remain authoritative when parallelism never engaged. Sums over workers
	// equal the Totals event counters.
	Workers []WorkerMetrics
	// ComputePhasesCaller and ComputePhasesFanout split the compute phases by
	// the path they took: finished on the calling goroutine (always, at
	// parallelism 1; above it, while the frontier stays small), or handed to
	// the PE workers. Their sum is the number of compute phases run.
	ComputePhasesCaller uint64
	ComputePhasesFanout uint64
	// QueueLive and QueueHighWater describe the coalescing queue occupancy
	// (live events now / peak).
	QueueLive      int64
	QueueHighWater uint64
	// GraphLayout is the delta mutation layer's layout work so far: segments
	// relocated into tail headroom, whole-graph re-lays (every applied batch
	// is either in place or one re-lay), the slab's physical and dead slots,
	// both directions summed, and the undo traffic — per-vertex records
	// in-place batches left with the versions they superseded, and how many of
	// those a reader of an old version turned back into an adjacency.
	GraphLayout GraphLayout
	// Channels is per-DRAM-channel traffic; nil with the timing model off.
	Channels []ChannelMetrics
	// NoC is the per-pair crossbar transfer matrix; nil until a parallel
	// phase has run.
	NoC []NoCPair
	// BatchLatency is the distribution of modeled per-batch durations in
	// nanoseconds (all zero with the timing model off, which models no time).
	BatchLatency HistogramSnapshot
}

// Metrics returns the structured metrics snapshot. Like State, call it
// between operations: the underlying atomics are always safe to read, but a
// snapshot taken mid-batch mixes attributed and pending work. For live
// scraping of a running system use MetricsHandler, whose series are
// individually consistent.
func (s *System) Metrics() MetricsSnapshot {
	eng := s.js.Engine()
	m := MetricsSnapshot{
		SchemaVersion: MetricsSchemaVersion,
		Totals:        s.TotalStats(),
		Batches:       s.batches,
		QueueLive:     int64(eng.Queue().Len()),
		QueueHighWater: func() uint64 {
			if ob := eng.Obs(); ob != nil {
				return ob.QueuePeak()
			}
			return uint64(eng.Queue().HighWater())
		}(),
		GraphLayout:  s.js.Graph().LayoutStats(),
		BatchLatency: s.latency.Snapshot(),
	}
	if ob := eng.Obs(); ob != nil {
		m.ComputePhasesCaller, m.ComputePhasesFanout = ob.ComputePhases()
		for i, w := range ob.WorkerSnapshots() {
			m.Workers = append(m.Workers, WorkerMetrics{
				Worker:          i,
				EventsProcessed: w.Processed,
				EventsCoalesced: w.Coalesced,
				EventsGenerated: w.Generated,
				EventsForwarded: w.Forwarded,
				Rounds:          w.Rounds,
				IdleSpins:       w.IdleSpins,
				ShardHighWater:  w.ShardHighWater,
			})
		}
		if k, cells := ob.PairSnapshot(); k > 0 {
			for src := 0; src < k; src++ {
				for dst := 0; dst < k; dst++ {
					if n := cells[src*k+dst]; n > 0 {
						m.NoC = append(m.NoC, NoCPair{Src: src, Dst: dst, Events: n})
					}
				}
			}
		}
	}
	for i, c := range eng.Channels() {
		m.Channels = append(m.Channels, ChannelMetrics{
			Channel: i, Accesses: c.Accesses, RowHits: c.RowHits, Bytes: c.Bytes,
		})
	}
	return m
}

// MetricsHandler returns an http.Handler serving the system's metrics in the
// Prometheus text exposition format. The handler reads only atomics, so it
// is safe to scrape while the system is streaming.
func (s *System) MetricsHandler() http.Handler { return s.reg.Handler() }

// Expvar returns the system's metrics as a single expvar.Var, for publishing
// under one name: expvar.Publish("jetstream", sys.Expvar()).
func (s *System) Expvar() expvar.Var { return s.reg.Var() }
