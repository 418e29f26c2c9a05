// Package mem models the off-chip memory system of the accelerator: a DDR3
// multi-channel DRAM with per-bank row buffers (the paper models memory with
// DRAMSim2), a set-associative edge cache, and the vertex scratchpad
// prefetcher. The models are cycle-approximate: they capture row-buffer
// locality, channel parallelism and bus serialization, which are the effects
// the paper's Figs 9 and 11 hinge on.
package mem

import (
	"strconv"
	"sync/atomic"

	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

// DRAMConfig describes the memory system. Defaults follow the paper's
// Table 1: 4 DDR3 channels at 17 GB/s each; with the accelerator clocked at
// 1 GHz a 64-byte line occupies a channel's data bus for ~4 cycles.
type DRAMConfig struct {
	Channels    int
	Banks       int    // banks per channel
	RowBytes    uint64 // row-buffer size
	LineBytes   uint64
	TRowHit     uint64 // cycles for an access hitting the open row (CAS)
	TRowMiss    uint64 // cycles for activate+precharge+CAS
	BurstCycles uint64 // data-bus occupancy per line
}

// DefaultDRAMConfig matches Table 1's 4x DDR3-2133 17 GB/s channels.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:    4,
		Banks:       8,
		RowBytes:    8192,
		LineBytes:   64,
		TRowHit:     15,
		TRowMiss:    45,
		BurstCycles: 4,
	}
}

type bank struct {
	openRow int64
	freeAt  uint64
}

type channel struct {
	banks   []bank
	busFree uint64

	// Per-channel traffic tallies. Atomics so a metrics scrape can read them
	// while the (single-threaded) timing model is advancing.
	accesses atomic.Uint64
	rowHits  atomic.Uint64
	bytes    atomic.Uint64
}

// ChannelCounts is one channel's cumulative traffic.
type ChannelCounts struct {
	Accesses uint64
	RowHits  uint64
	Bytes    uint64
}

// DRAM is the stateful timing model. Addresses interleave across channels at
// line granularity (address bits just above the line offset), which is how
// the accelerator spreads sequential traffic across all four channels.
type DRAM struct {
	cfg DRAMConfig
	ch  []channel
	st  *stats.Counters
}

// NewDRAM builds the model; st may be nil.
func NewDRAM(cfg DRAMConfig, st *stats.Counters) *DRAM {
	if st == nil {
		st = &stats.Counters{}
	}
	d := &DRAM{cfg: cfg, st: st, ch: make([]channel, cfg.Channels)}
	for i := range d.ch {
		d.ch[i].banks = make([]bank, cfg.Banks)
		for b := range d.ch[i].banks {
			d.ch[i].banks[b].openRow = -1
		}
	}
	return d
}

// Access transfers the 64-byte line containing addr, issued at cycle `at`,
// and returns the completion cycle. Reads and writes are charged alike.
func (d *DRAM) Access(at uint64, addr uint64) uint64 {
	line := addr / d.cfg.LineBytes
	ci := int(line) % d.cfg.Channels
	c := &d.ch[ci]
	// Row id within the channel: lines map to rows after channel interleave.
	lineInCh := line / uint64(d.cfg.Channels)
	row := int64(lineInCh / (d.cfg.RowBytes / d.cfg.LineBytes))
	bi := int(row) % d.cfg.Banks
	b := &c.banks[bi]

	start := at
	if b.freeAt > start {
		start = b.freeAt
	}
	var lat uint64
	if b.openRow == row {
		// Column access to the open row: CAS latency to data, but the bank
		// can accept the next column command after one burst interval
		// (tCCD), so open-row streams pipeline at bus rate.
		lat = d.cfg.TRowHit
		b.freeAt = start + d.cfg.BurstCycles
		d.st.RowHits++
		c.rowHits.Add(1)
	} else {
		// Precharge + activate: the bank is occupied for the full cycle.
		lat = d.cfg.TRowMiss
		b.freeAt = start + d.cfg.TRowMiss
		b.openRow = row
	}
	ready := start + lat
	// Serialize on the channel data bus.
	busStart := ready
	if c.busFree > busStart {
		busStart = c.busFree
	}
	done := busStart + d.cfg.BurstCycles
	c.busFree = done
	d.st.DRAMAccesses++
	d.st.BytesTransferred += d.cfg.LineBytes
	c.accesses.Add(1)
	c.bytes.Add(d.cfg.LineBytes)
	return done
}

// ChannelCounts returns the per-channel traffic tallies.
func (d *DRAM) ChannelCounts() []ChannelCounts {
	out := make([]ChannelCounts, len(d.ch))
	for i := range d.ch {
		out[i] = ChannelCounts{
			Accesses: d.ch[i].accesses.Load(),
			RowHits:  d.ch[i].rowHits.Load(),
			Bytes:    d.ch[i].bytes.Load(),
		}
	}
	return out
}

// Observe registers the per-channel traffic series on reg. The values are
// read from the model's atomics at export time, so the timing hot path pays
// only the tally increments it already makes.
func (d *DRAM) Observe(reg *obs.Registry) {
	for i := range d.ch {
		c := &d.ch[i]
		l := obs.L("channel", strconv.Itoa(i))
		reg.CounterFunc("jetstream_dram_channel_accesses_total", c.accesses.Load, l)
		reg.CounterFunc("jetstream_dram_channel_row_hits_total", c.rowHits.Load, l)
		reg.CounterFunc("jetstream_dram_channel_bytes_total", c.bytes.Load, l)
	}
}

// LineBytes exposes the configured line size.
func (d *DRAM) LineBytes() uint64 { return d.cfg.LineBytes }

// Reset clears all timing state (row buffers, bus schedules) but keeps the
// cumulative counters in the attached stats.
func (d *DRAM) Reset() {
	for i := range d.ch {
		d.ch[i].busFree = 0
		for b := range d.ch[i].banks {
			d.ch[i].banks[b] = bank{openRow: -1}
		}
	}
}
