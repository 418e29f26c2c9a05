// Package stats collects work and traffic counters for the functional and
// timing layers. Every figure in the JetStream evaluation that is not a raw
// execution time (Figs 9, 10, 11) is derived from these counters, so they are
// kept deliberately explicit rather than folded into engine-local variables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counters accumulates work counts for one engine run (an initial evaluation
// or one streaming batch). The zero value is ready to use.
type Counters struct {
	// Functional work.
	EventsProcessed  uint64 // events popped from the queue and applied
	EventsGenerated  uint64 // events produced by propagation
	EventsCoalesced  uint64 // insertions merged into an existing queue slot
	VertexReads      uint64 // vertex-state reads by the apply units
	VertexWrites     uint64 // vertex-state writes by the apply units
	EdgeReads        uint64 // edges fetched by the generation streams
	VerticesReset    uint64 // vertices reset to Identity during delete recovery
	RequestsIssued   uint64 // reapproximation request events created
	DeletesDiscarded uint64 // delete events pruned by VAP/DAP before reset
	Rounds           uint64 // queue drain rounds
	Phases           uint64 // scheduler phases (delete, reapprox, compute, ...)

	// Off-chip traffic (filled by the timing layer).
	BytesTransferred uint64 // bytes moved from DRAM into on-chip storage
	BytesUsed        uint64 // bytes of that traffic actually consumed
	DRAMAccesses     uint64 // 64-byte line transfers
	RowHits          uint64 // DRAM row-buffer hits
	SpillBytes       uint64 // cross-slice / overflow events written off-chip

	// Resilience (ingest validation, recovery).
	UpdatesDropped     uint64 // invalid updates dropped by the Repair ingest policy
	BatchesRepaired    uint64 // batches with at least one update dropped
	ColdStartFallbacks uint64 // watchdog cold-start recomputations

	// Timing results.
	Cycles uint64 // accelerator cycles at the configured clock
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.EventsProcessed += o.EventsProcessed
	c.EventsGenerated += o.EventsGenerated
	c.EventsCoalesced += o.EventsCoalesced
	c.VertexReads += o.VertexReads
	c.VertexWrites += o.VertexWrites
	c.EdgeReads += o.EdgeReads
	c.VerticesReset += o.VerticesReset
	c.RequestsIssued += o.RequestsIssued
	c.DeletesDiscarded += o.DeletesDiscarded
	c.Rounds += o.Rounds
	c.Phases += o.Phases
	c.BytesTransferred += o.BytesTransferred
	c.BytesUsed += o.BytesUsed
	c.DRAMAccesses += o.DRAMAccesses
	c.RowHits += o.RowHits
	c.SpillBytes += o.SpillBytes
	c.UpdatesDropped += o.UpdatesDropped
	c.BatchesRepaired += o.BatchesRepaired
	c.ColdStartFallbacks += o.ColdStartFallbacks
	c.Cycles += o.Cycles
}

// Sub subtracts o from c field by field. Callers snapshotting cumulative
// counters use it to compute per-operation deltas.
func (c *Counters) Sub(o *Counters) {
	c.EventsProcessed -= o.EventsProcessed
	c.EventsGenerated -= o.EventsGenerated
	c.EventsCoalesced -= o.EventsCoalesced
	c.VertexReads -= o.VertexReads
	c.VertexWrites -= o.VertexWrites
	c.EdgeReads -= o.EdgeReads
	c.VerticesReset -= o.VerticesReset
	c.RequestsIssued -= o.RequestsIssued
	c.DeletesDiscarded -= o.DeletesDiscarded
	c.Rounds -= o.Rounds
	c.Phases -= o.Phases
	c.BytesTransferred -= o.BytesTransferred
	c.BytesUsed -= o.BytesUsed
	c.DRAMAccesses -= o.DRAMAccesses
	c.RowHits -= o.RowHits
	c.SpillBytes -= o.SpillBytes
	c.UpdatesDropped -= o.UpdatesDropped
	c.BatchesRepaired -= o.BatchesRepaired
	c.ColdStartFallbacks -= o.ColdStartFallbacks
	c.Cycles -= o.Cycles
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// EventsUnaccounted is the queue conservation residual: at quiescence every
// generated event has either been processed or coalesced into one that was,
// so the residual must be zero — at any parallelism. The quiescence tests
// assert it; a nonzero value means events were lost or double-counted
// somewhere between emission and retirement.
func (c *Counters) EventsUnaccounted() int64 {
	return int64(c.EventsGenerated) - int64(c.EventsProcessed) - int64(c.EventsCoalesced)
}

// MemoryUtilization is the Fig 11 metric: bytes consumed by the compute
// engine divided by bytes transferred from off-chip memory. Returns 0 when no
// traffic occurred.
func (c *Counters) MemoryUtilization() float64 {
	if c.BytesTransferred == 0 {
		return 0
	}
	u := float64(c.BytesUsed) / float64(c.BytesTransferred)
	if u > 1 {
		u = 1
	}
	return u
}

// String renders the counters as a compact single-line summary.
func (c *Counters) String() string {
	return fmt.Sprintf("events=%d gen=%d coalesced=%d vtx=%d/%d edges=%d resets=%d rounds=%d cycles=%d",
		c.EventsProcessed, c.EventsGenerated, c.EventsCoalesced,
		c.VertexReads, c.VertexWrites, c.EdgeReads, c.VerticesReset, c.Rounds, c.Cycles)
}

// Table renders a two-column table of every nonzero counter, for reports.
func (c *Counters) Table() string {
	rows := []struct {
		k string
		v uint64
	}{
		{"events processed", c.EventsProcessed},
		{"events generated", c.EventsGenerated},
		{"events coalesced", c.EventsCoalesced},
		{"vertex reads", c.VertexReads},
		{"vertex writes", c.VertexWrites},
		{"edge reads", c.EdgeReads},
		{"vertices reset", c.VerticesReset},
		{"requests issued", c.RequestsIssued},
		{"deletes discarded", c.DeletesDiscarded},
		{"drain rounds", c.Rounds},
		{"phases", c.Phases},
		{"bytes transferred", c.BytesTransferred},
		{"bytes used", c.BytesUsed},
		{"DRAM accesses", c.DRAMAccesses},
		{"row hits", c.RowHits},
		{"spill bytes", c.SpillBytes},
		{"updates dropped", c.UpdatesDropped},
		{"batches repaired", c.BatchesRepaired},
		{"cold-start fallbacks", c.ColdStartFallbacks},
		{"cycles", c.Cycles},
	}
	var b strings.Builder
	for _, r := range rows {
		if r.v != 0 {
			fmt.Fprintf(&b, "%-20s %12d\n", r.k, r.v)
		}
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It is the aggregation the paper uses for speedup summaries (Table 3).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
