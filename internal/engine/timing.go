package engine

import (
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/mem"
	"jetstream/internal/noc"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

// Address-space layout for the accelerator's dedicated DRAM. Distinct
// regions keep vertex streams, edge streams and spill traffic from aliasing
// in the row-buffer model.
const (
	vertexBase uint64 = 0x0000_0000
	edgeBase   uint64 = 0x4000_0000
	spillBase  uint64 = 0xC000_0000
)

// Timing is the engine's cycle model. The functional engine reports each
// drain-round row batch (the exact vertices touched, edge ranges fetched and
// events generated) and Timing replays those accesses through the DRAM, per-PE
// edge caches and the generation-to-queue crossbar, advancing a cycle counter.
// This is the stand-in for the paper's SST+DRAMSim2 simulation: absolute
// cycles are approximate, but the relative costs that drive every figure
// (work counts, spatial locality, row-buffer behaviour) come from the real
// access streams.
type Timing struct {
	cfg  Config
	st   *stats.Counters
	dram *mem.DRAM
	ec   []*mem.Cache // per-PE edge caches
	xbar *noc.Crossbar

	cycles   uint64
	spillPtr uint64
	batchSeq int
}

// NewTiming builds the cycle model for cfg; st receives traffic counters.
func NewTiming(cfg Config, st *stats.Counters) *Timing {
	t := &Timing{
		cfg:  cfg,
		st:   st,
		dram: mem.NewDRAM(cfg.DRAM, st),
		xbar: noc.New(16, 16),
	}
	for i := 0; i < cfg.Processors; i++ {
		t.ec = append(t.ec, mem.NewCache(cfg.EdgeCacheBytes, 2, 64))
	}
	return t
}

// Cycles returns the accumulated cycle count.
func (t *Timing) Cycles() uint64 { return t.cycles }

// Observe registers the model's per-channel DRAM traffic series on reg.
func (t *Timing) Observe(reg *obs.Registry) { t.dram.Observe(reg) }

// Channels returns the per-channel DRAM traffic tallies.
func (t *Timing) Channels() []mem.ChannelCounts { return t.dram.ChannelCounts() }

// EdgeFetch describes one vertex's adjacency read: the CSR offset of the
// first edge and the number of edges.
type EdgeFetch struct {
	Offset uint64
	Count  int
}

// Batch charges one drain-round row batch: the vertices touched (ascending),
// how many were written back, the adjacency ranges fetched, and the targets
// of every generated event (length = events generated).
func (t *Timing) Batch(touched []graph.VertexID, written int, fetches []EdgeFetch, genTargets []graph.VertexID) {
	generated := len(genTargets)
	if len(touched) == 0 && len(fetches) == 0 && generated == 0 {
		return
	}
	start := t.cycles
	memDone := start

	// Vertex prefetch: the scratchpad prefetcher reads the distinct state
	// lines for the batch; rows group page-local vertices so these are
	// mostly sequential (paper §4.4).
	vb := uint64(t.cfg.VertexBytes)
	lastLine := ^uint64(0)
	lines := 0
	for _, v := range touched {
		addr := vertexBase + uint64(v)*vb
		if line := addr / 64; line != lastLine {
			lastLine = line
			lines++
			if done := t.dram.Access(start, addr); done > memDone {
				memDone = done
			}
		}
	}
	// Write-back of dirty lines (write-combined through the scratchpad).
	wbLines := (written*int(vb) + 63) / 64
	for i := 0; i < wbLines; i++ {
		addr := vertexBase + uint64(touched[0])*vb + uint64(i*64)
		if done := t.dram.Access(start, addr); done > memDone {
			memDone = done
		}
	}

	// Edge streams: each fetch goes through its processor's edge cache;
	// misses stream from DRAM (contiguous edge arrays, §4.4).
	eb := uint64(t.cfg.EdgeBytes)
	totalEdges := 0
	for i, f := range fetches {
		totalEdges += f.Count
		pe := (t.batchSeq + i) % t.cfg.Processors
		lo := edgeBase + f.Offset*eb
		hi := lo + uint64(f.Count)*eb
		for line := lo / 64; line <= (hi-1)/64 && f.Count > 0; line++ {
			if !t.ec[pe].Access(line * 64) {
				if done := t.dram.Access(start, line*64); done > memDone {
					memDone = done
				}
			}
		}
	}
	t.batchSeq++

	// Pipeline bounds: apply throughput over the PEs, generation throughput
	// over the streams, crossbar insertion.
	pe := uint64(t.cfg.Processors)
	applyC := (uint64(len(touched))*uint64(t.cfg.ApplyCycles) + pe - 1) / pe
	streams := uint64(t.cfg.Processors * t.cfg.GenStreams)
	genC := (uint64(totalEdges) + streams - 1) / streams
	flits := uint64(generated) * uint64((event.Size(t.cfg.EventMode)+7)/8)
	insC := t.xbar.SpreadCycles(flits)
	pipeDone := start + applyC + genC + insC

	t.cycles = max(memDone, pipeDone)

	// Useful-byte accounting for Fig 11: state actually consumed/produced
	// plus edges actually walked.
	t.st.BytesUsed += uint64(len(touched)+written)*vb + uint64(totalEdges)*eb
}

// RoundOverhead charges the scheduler's end-of-round synchronization (the
// scheduler waits for all processors to idle before a new round, §4.3).
func (t *Timing) RoundOverhead() {
	t.cycles += uint64(t.cfg.RoundOverheadCycles)
}

// Spill charges an off-chip block transfer of n event records (cross-slice
// events or the DAP overflow buffer, §4.7/§5.2), in the given direction.
func (t *Timing) Spill(n int) {
	if n == 0 {
		return
	}
	bytes := uint64(n * event.Size(t.cfg.EventMode))
	start := t.cycles
	memDone := start
	for off := uint64(0); off < bytes; off += 64 {
		if done := t.dram.Access(start, spillBase+(t.spillPtr+off)%(1<<28)); done > memDone {
			memDone = done
		}
	}
	t.spillPtr = (t.spillPtr + bytes) % (1 << 28)
	t.st.SpillBytes += bytes
	t.st.BytesUsed += bytes // spilled events are fully consumed on re-read
	t.cycles = memDone
}

// StreamRead charges the Stream Reader module's sequential scan of a batch
// of n edge updates from memory (§4.5).
func (t *Timing) StreamRead(n int) {
	if n == 0 {
		return
	}
	const updBytes = 12 // <source, destination, weight>
	bytes := uint64(n * updBytes)
	start := t.cycles
	memDone := start
	for off := uint64(0); off < bytes; off += 64 {
		if done := t.dram.Access(start, spillBase+(1<<27)+off%(1<<26)); done > memDone {
			memDone = done
		}
	}
	t.st.BytesUsed += bytes
	t.cycles = memDone
}
