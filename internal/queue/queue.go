// Package queue implements the on-chip coalescing event queue at the heart
// of GraphPulse and JetStream (paper §4.2). The queue keeps at most one live
// event per vertex: an insertion that finds its direct-mapped slot occupied
// is combined with the resident event by the application's Reduce operation
// (coalescing). Events are emitted row by row, where a row groups vertices
// whose states share a DRAM page, which is what gives the accelerator its
// spatial locality during vertex updates.
//
// JetStream extends the queue two ways: delete events coalesce during the
// recovery phase, and under the DAP optimization coalescing is *disabled*
// during recovery (distinct sources must not be merged), with the extra
// events parked in an overflow buffer that spills to off-chip memory in
// blocks (§5.2).
package queue

import (
	"fmt"

	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

// Coalesce is how the queue combines an arriving event with the one resident
// in its slot; build one with ReduceCoalesce.
type Coalesce struct {
	reduce func(a, b float64) float64
}

// ReduceCoalesce builds the standard Coalesce for an application Reduce
// function: payloads are combined with Reduce, flags are OR-ed (so a request
// bit survives coalescing with an insertion event, §3.5), and the source id
// of the dominating payload is retained (DAP dependency tracking, §5.2).
func ReduceCoalesce(reduce func(a, b float64) float64) Coalesce {
	return Coalesce{reduce: reduce}
}

// merge folds an arriving (value, source, flags) into the resident event in
// place — the hardware combines in the slot (§4.2), and so does this: one
// indirect call, no record copied.
func (c Coalesce) merge(slot *event.Event, val float64, src graph.VertexID, fl event.Flags) {
	v := c.reduce(slot.Value, val)
	// Track the source whose contribution dominates. For accumulative
	// algorithms (sum) this is meaningless and unused.
	if v == val && v != slot.Value {
		slot.Source = src
	}
	slot.Value = v
	slot.Flags |= fl
}

// Config sizes the queue.
type Config struct {
	// RowSize is the number of vertex slots per row. The engines process one
	// row as a batch, mirroring the drain buffer. Must be > 0.
	RowSize int
	// Bins is the number of parallel bins; it only affects reported
	// geometry (insertion bandwidth is modeled by the timing layer).
	Bins int
}

// DefaultConfig matches the paper's setup: vertex states are 8 bytes and a
// 4 KB DRAM page holds 512 of them, so a row covers 512 vertices; 16 bins
// feed the 16x16 crossbar.
func DefaultConfig() Config { return Config{RowSize: 512, Bins: 16} }

// Coalescing is the event queue for one graph slice. It is not safe for
// concurrent use; the functional engine is single-threaded by design (the
// hardware's parallelism is reconstructed by the timing layer).
type Coalescing struct {
	cfg      Config
	coalesce Coalesce
	st       *stats.Counters

	// n is the vertex-slot capacity; slots and occ are materialized on the
	// first Insert (see ensure), so an idle queue costs O(1) memory — the
	// property that lets a service construct thousands of dormant systems.
	n     int
	slots []event.Event
	occ   *occupancy
	// drain is the reusable row-batch scratch buffer; DrainRound reslices it
	// instead of allocating a fresh batch every round.
	drain []event.Event

	coalescingOn bool
	overflow     overflow // non-coalescing mode: extra events, FIFO

	highWater int // peak live events; sizes the on-chip memory requirement

	// Occupancy mirrors, refreshed once per drain round (not per insert, to
	// keep the hot path free of atomics). Nil when uninstrumented.
	obLive *obs.Gauge
	obHigh *obs.Max
}

// SetObs attaches occupancy mirrors: live receives the queue length and high
// the high-water mark at every drain round. Pass nils to detach.
func (q *Coalescing) SetObs(live *obs.Gauge, high *obs.Max) {
	q.obLive = live
	q.obHigh = high
	q.publishObs()
}

func (q *Coalescing) publishObs() {
	// Each sink is optional on its own: SetObs(live, nil) and SetObs(nil,
	// high) are both valid attachments.
	if q.obLive != nil {
		q.obLive.Set(int64(q.Len()))
	}
	if q.obHigh != nil {
		q.obHigh.Observe(uint64(q.highWater))
	}
}

// New creates a queue over n vertex slots. st may be nil.
func New(n int, cfg Config, fn Coalesce, st *stats.Counters) *Coalescing {
	if cfg.RowSize <= 0 {
		panic("queue: RowSize must be positive")
	}
	if st == nil {
		st = &stats.Counters{}
	}
	return &Coalescing{
		cfg:          cfg,
		coalesce:     fn,
		st:           st,
		n:            n,
		coalescingOn: true,
	}
}

// ensure materializes the slot array and occupancy bitmap on first insert.
func (q *Coalescing) ensure() {
	if q.occ != nil {
		return
	}
	q.slots = make([]event.Event, q.n)
	q.occ = newOccupancy(q.n, q.cfg.RowSize)
	q.drain = make([]event.Event, 0, q.cfg.RowSize)
}

// SetCoalescing toggles event coalescing. JetStream disables it during the
// DAP recovery phase so that delete events from distinct sources are not
// merged (§5.2); everywhere else it stays on.
func (q *Coalescing) SetCoalescing(on bool) { q.coalescingOn = on }

// CoalescingEnabled reports the current mode.
func (q *Coalescing) CoalescingEnabled() bool { return q.coalescingOn }

// Insert adds e to the queue, coalescing with any resident event for the
// same target.
func (q *Coalescing) Insert(e event.Event) { q.Put(e.Target, e.Value, e.Source, e.Flags) }

// Put is Insert with the event's fields as scalars, for emitters that compute
// them per edge: an occupied slot is merged in place and an empty one written
// field by field, so no event record is built to be copied.
func (q *Coalescing) Put(t graph.VertexID, val float64, src graph.VertexID, fl event.Flags) {
	if int(t) >= q.n {
		panic(fmt.Sprintf("queue: target %d out of range (%d slots)", t, q.n))
	}
	q.ensure()
	if !q.occ.set(int(t)) {
		if q.coalescingOn {
			q.coalesce.merge(&q.slots[t], val, src, fl)
			q.st.EventsCoalesced++
			return
		}
		q.overflow.push(t, val, src, fl)
	} else {
		s := &q.slots[t]
		s.Target, s.Value, s.Source, s.Flags = t, val, src, fl
	}
	if live := q.Len(); live > q.highWater {
		q.highWater = live
	}
}

// Len returns the number of live events (slots + overflow).
func (q *Coalescing) Len() int {
	if q.occ == nil {
		return 0
	}
	return q.occ.count + len(q.overflow.fill)
}

// Empty reports whether no events are pending.
func (q *Coalescing) Empty() bool { return q.Len() == 0 }

// HighWater returns the peak number of simultaneously live events.
func (q *Coalescing) HighWater() int { return q.highWater }

// Rows returns the number of rows covering the vertex space.
func (q *Coalescing) Rows() int {
	return (q.n + q.cfg.RowSize - 1) / q.cfg.RowSize
}

// DrainRound emits every currently pending event, one row batch at a time,
// in ascending vertex order — the queue sorts events by destination so that
// vertex-state reads within a batch hit the same DRAM page (paper §3.4).
// Events inserted by fn during the round land in later rows of the same
// round or in the next round, reproducing the asynchronous round-robin bin
// draining of the hardware. After the rows, the overflow buffer (if any) is
// drained FIFO in RowSize batches. Returns the number of events emitted.
//
// The row walk is sparse: the occupancy bitmap jumps straight to the next
// non-empty row (and, inside a row, to the next set bit), so a round over a
// handful of live events does not scan the whole vertex space. The row
// cursor only moves forward, which preserves the dense-scan ordering
// contract above — a same-row or earlier-row reinsertion waits for the next
// round even if its row still has the occupancy bit set.
func (q *Coalescing) DrainRound(fn func(batch []event.Event)) int {
	if q.occ == nil {
		// Nothing was ever inserted; count the (empty) round for parity with
		// the materialized path.
		q.st.Rounds++
		q.publishObs()
		return 0
	}
	emitted := 0
	batch := q.drain[:0]
	for row := q.occ.nextRow(0); row >= 0; row = q.occ.nextRow(row + 1) {
		batch = batch[:0]
		q.occ.drainRow(row, func(slot int) {
			batch = append(batch, q.slots[slot])
		})
		if len(batch) > 0 {
			emitted += len(batch)
			fn(batch)
		}
	}
	emitted += q.overflow.drainRound(q.cfg.RowSize, fn)
	q.st.Rounds++
	q.publishObs()
	return emitted
}

// overflow is the FIFO of the non-coalescing mode: events whose slot was
// already taken. It keeps two buffers — fill, which Put appends to, and
// spare, which the last round drained — and a drain round swaps them, so a
// recovery phase grows them to its peak once instead of from nil every round.
type overflow struct {
	fill, spare []event.Event
}

func (o *overflow) push(t graph.VertexID, val float64, src graph.VertexID, fl event.Flags) {
	o.fill = append(o.fill, event.Event{Target: t, Value: val, Source: src, Flags: fl})
}

// ReleaseOverflow drops the overflow FIFO's buffers. They grow to the largest
// non-coalescing phase the queue has run and are kept for its life otherwise,
// so a caller that has just run one outsized batch — a folded recovery —
// releases them. Call it only on an empty queue.
func (q *Coalescing) ReleaseOverflow() { q.overflow = overflow{} }

// drainRound emits the events parked before the call, FIFO in rowSize
// batches; events fn parks wait for the next round. Returns the number
// emitted.
func (o *overflow) drainRound(rowSize int, fn func(batch []event.Event)) int {
	pend := o.fill
	o.fill, o.spare = o.spare[:0], nil
	for lo := 0; lo < len(pend); lo += rowSize {
		hi := lo + rowSize
		if hi > len(pend) {
			hi = len(pend)
		}
		fn(pend[lo:hi])
	}
	o.spare = pend[:0]
	return len(pend)
}

// Drain runs DrainRound until the queue is empty, which is the engines'
// convergence loop ("processing continues until no more events are
// available"). Returns total events emitted.
func (q *Coalescing) Drain(fn func(batch []event.Event)) int {
	total := 0
	for !q.Empty() {
		total += q.DrainRound(fn)
	}
	return total
}
