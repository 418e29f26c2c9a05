package queue

import (
	"math"
	"testing"

	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
)

// refQueue is the queue discipline written the plain way — whole events, the
// coalescing rule as a pure function of (old, incoming) — for the fuzz target
// below to hold Put and Insert against: one slot per target, taken slots merge
// or (coalescing off) park the arrival FIFO, a round emits the slots in
// ascending target order and then the parked events.
type refQueue struct {
	reduce    func(a, b float64) float64
	slots     []*event.Event
	parked    []event.Event
	live      int
	coalesced uint64
	high      int
}

func (r *refQueue) insert(in event.Event, coalescing bool) {
	switch old := r.slots[in.Target]; {
	case old == nil:
		r.slots[in.Target] = &in
	case coalescing:
		v := r.reduce(old.Value, in.Value)
		if v == in.Value && v != old.Value {
			old.Source = in.Source
		}
		old.Value, old.Flags = v, old.Flags|in.Flags
		r.coalesced++
		return
	default:
		r.parked = append(r.parked, in)
	}
	if r.live++; r.live > r.high {
		r.high = r.live
	}
}

func (r *refQueue) drainRound() (out []event.Event) {
	for t, e := range r.slots {
		if e != nil {
			out, r.slots[t] = append(out, *e), nil
		}
	}
	out, r.parked, r.live = append(out, r.parked...), nil, 0
	return out
}

// fuzzValues are the payloads the fuzz target draws from: the special values
// a Reduce and the dominating-source test can be wrong about.
var fuzzValues = [...]float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e-9, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}

var fuzzReduces = [...]func(a, b float64) float64{
	math.Min,
	math.Max,
	func(a, b float64) float64 { return a + b },
}

func sameEvent(a, b event.Event) bool {
	return a.Target == b.Target && math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Source == b.Source && a.Flags == b.Flags
}

func sameEvents(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEvent(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzPutMatchesInsert drives one arbitrary operation sequence — inserts with
// special values, sources and flag bits, coalescing toggled and rounds drained
// mid-stream — through the reference, through Insert and through the scalar
// Put, on a Coalescing queue and on a single Shard, and requires identical
// drained events in identical order, and identical Len, high-water and
// coalesced counts after every operation.
func FuzzPutMatchesInsert(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{1, 5, 0x10, 7, 1, 5, 0x21, 9, 2, 5, 0x32, 7, 1, 0xFF, 5, 0x13, 8, 3})
	f.Add([]byte{2, 0xFE, 3, 0x08, 1, 0, 3, 0x18, 2, 1, 3, 0x28, 3, 2, 0xFF, 3, 0x01, 4, 3, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const n = 24 // three rows of 8: row boundaries and a short overflow batch both occur
		cfg := Config{RowSize: 8}
		reduce := fuzzReduces[int(data[0])%len(fuzzReduces)]
		data = data[1:]

		ref := &refQueue{reduce: reduce, slots: make([]*event.Event, n)}
		var qSt, pSt stats.Counters
		qIns := New(n, cfg, ReduceCoalesce(reduce), &qSt)
		qPut := New(n, cfg, ReduceCoalesce(reduce), &pSt)
		sIns := NewSharded(1, make([]int32, n), cfg, ReduceCoalesce(reduce), true).Shard(0)
		sPut := NewSharded(1, make([]int32, n), cfg, ReduceCoalesce(reduce), true).Shard(0)
		var sInsMerged, sPutMerged uint64
		coalescing := true

		collect := func(drain func(func([]event.Event)) int) []event.Event {
			var out []event.Event
			if got := drain(func(b []event.Event) {
				if len(b) == 0 || len(b) > cfg.RowSize {
					t.Fatalf("batch of %d events with RowSize %d", len(b), cfg.RowSize)
				}
				out = append(out, b...)
			}); got != len(out) {
				t.Fatalf("DrainRound returned %d, emitted %d", got, len(out))
			}
			return out
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op == 0xFF: // drain one round everywhere
				want := ref.drainRound()
				for name, got := range map[string][]event.Event{
					"Coalescing/Insert": collect(qIns.DrainRound), "Coalescing/Put": collect(qPut.DrainRound),
					"Shard/Insert": collect(sIns.DrainRound), "Shard/Put": collect(sPut.DrainRound),
				} {
					if !sameEvents(got, want) {
						t.Fatalf("%s drained %v, reference %v", name, got, want)
					}
				}
			case op == 0xFE: // toggle coalescing
				coalescing = !coalescing
				qIns.SetCoalescing(coalescing)
				qPut.SetCoalescing(coalescing)
				sIns.coalescingOn, sPut.coalescingOn = coalescing, coalescing
			default:
				if len(data) < 2 {
					return
				}
				ev := event.Event{
					Target: graph.VertexID(int(op) % n),
					Value:  fuzzValues[int(data[0]>>4)%len(fuzzValues)],
					Flags:  event.Flags(data[0] & 3),
					Source: graph.VertexID(data[1]),
				}
				if data[1] == 0xFF {
					ev.Source = event.NoSource
				}
				data = data[2:]
				ref.insert(ev, coalescing)
				qIns.Insert(ev)
				qPut.Put(ev.Target, ev.Value, ev.Source, ev.Flags)
				if sIns.Insert(ev) {
					sInsMerged++
				}
				if sPut.Put(ev.Target, ev.Value, ev.Source, ev.Flags) {
					sPutMerged++
				}
			}
			for name, got := range map[string][3]uint64{
				"Coalescing/Insert": {uint64(qIns.Len()), uint64(qIns.HighWater()), qSt.EventsCoalesced},
				"Coalescing/Put":    {uint64(qPut.Len()), uint64(qPut.HighWater()), pSt.EventsCoalesced},
				"Shard/Insert":      {uint64(sIns.Len()), uint64(sIns.HighWater()), sInsMerged},
				"Shard/Put":         {uint64(sPut.Len()), uint64(sPut.HighWater()), sPutMerged},
			} {
				if want := [3]uint64{uint64(ref.live), uint64(ref.high), ref.coalesced}; got != want {
					t.Fatalf("%s (len, high-water, coalesced) = %v, reference %v", name, got, want)
				}
			}
			// The resident slots themselves, not only what a drain makes of them.
			for v, want := range ref.slots {
				if want != nil && !(sameEvent(qPut.slots[v], *want) && sameEvent(sPut.slots[v], *want)) {
					t.Fatalf("slot %d: Coalescing %v, Shard %v, reference %v", v, qPut.slots[v], sPut.slots[v], *want)
				}
			}
		}
	})
}

// TestOverflowBuffersAreReused pins the non-coalescing mode — every round of a
// DAP recovery phase — at zero allocations in steady state: a drain round
// hands the buffer it emptied back to the inserts of the next one. It also
// pins what the reuse must not disturb: overflow events leave FIFO, and one
// parked during a round waits for the next.
func TestOverflowBuffersAreReused(t *testing.T) {
	const n = 16
	type driver struct {
		put   func(t graph.VertexID, val float64)
		drain func(fn func([]event.Event)) int
	}
	q := New(n, Config{RowSize: 4}, sumCoalesce(), nil)
	q.SetCoalescing(false)
	s := NewSharded(1, make([]int32, n), Config{RowSize: 4}, sumCoalesce(), false).Shard(0)
	drivers := map[string]driver{
		"Coalescing": {func(t graph.VertexID, val float64) { q.Put(t, val, event.NoSource, 0) }, q.DrainRound},
		"Shard":      {func(t graph.VertexID, val float64) { s.Put(t, val, event.NoSource, 0) }, s.DrainRound},
	}

	for name, d := range drivers {
		t.Run(name, func(t *testing.T) {
			// A round: ten events on target 3 — one slot, nine parked — and
			// while they drain, each of the first five parks a successor.
			var got []float64
			next := 0.0
			visit := func(b []event.Event) {
				for _, e := range b {
					got = append(got, e.Value)
					if e.Value < 5 {
						d.put(3, 100+e.Value)
					}
				}
			}
			round := func() {
				got = got[:0]
				for i := 0; i < 10; i++ {
					d.put(3, next)
					next++
				}
				next = 0
				d.drain(visit)
			}
			round()
			if want := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !equalFloats(got, want) {
				t.Fatalf("first round drained %v, want %v (slot, then overflow FIFO)", got, want)
			}
			round()
			// The successors parked during round one came first: their slot
			// event, then FIFO, then this round's ten behind them.
			if want := []float64{100, 101, 102, 103, 104, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !equalFloats(got, want) {
				t.Fatalf("second round drained %v, want %v (events parked mid-round wait, in order)", got, want)
			}
			got = make([]float64, 0, 64)
			if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
				t.Errorf("steady-state non-coalescing round allocates %v times, want 0", allocs)
			}
		})
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
