package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jetstream/internal/event"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

func minCoalesce() Coalesce {
	return ReduceCoalesce(func(a, b float64) float64 { return math.Min(a, b) })
}

func sumCoalesce() Coalesce {
	return ReduceCoalesce(func(a, b float64) float64 { return a + b })
}

func TestInsertAndCoalesce(t *testing.T) {
	st := &stats.Counters{}
	q := New(100, Config{RowSize: 16}, minCoalesce(), st)
	q.Insert(event.New(5, 10))
	q.Insert(event.New(5, 7))
	q.Insert(event.New(5, 12))
	if q.Len() != 1 {
		t.Fatalf("Len=%d, want 1 (coalesced)", q.Len())
	}
	if st.EventsCoalesced != 2 {
		t.Errorf("coalesced=%d, want 2", st.EventsCoalesced)
	}
	var got []event.Event
	q.DrainRound(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("drained %v, want one event with value 7", got)
	}
	if !q.Empty() {
		t.Error("queue not empty after drain")
	}
}

func TestSumCoalesce(t *testing.T) {
	q := New(10, Config{RowSize: 4}, sumCoalesce(), nil)
	q.Insert(event.New(3, 1.5))
	q.Insert(event.New(3, 2.5))
	q.Insert(event.New(3, -1))
	var got []event.Event
	q.Drain(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 || got[0].Value != 3 {
		t.Fatalf("drained %v, want single event value 3", got)
	}
}

func TestDrainOrderIsAscending(t *testing.T) {
	q := New(1000, Config{RowSize: 64}, minCoalesce(), nil)
	rng := rand.New(rand.NewSource(1))
	for _, v := range rng.Perm(1000)[:200] {
		q.Insert(event.New(uint32(v), float64(v)))
	}
	var order []uint32
	q.DrainRound(func(b []event.Event) {
		for _, e := range b {
			order = append(order, e.Target)
		}
	})
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("drain order not ascending at %d: %d then %d", i, order[i-1], order[i])
		}
	}
	if len(order) != 200 {
		t.Fatalf("drained %d events, want 200", len(order))
	}
}

func TestRowBatching(t *testing.T) {
	q := New(100, Config{RowSize: 10}, minCoalesce(), nil)
	for v := 0; v < 100; v += 5 {
		q.Insert(event.New(uint32(v), 1))
	}
	batches := 0
	q.DrainRound(func(b []event.Event) {
		batches++
		if len(b) > 10 {
			t.Errorf("batch of %d exceeds row size", len(b))
		}
		// All events in a batch must come from one row.
		row := int(b[0].Target) / 10
		for _, e := range b {
			if int(e.Target)/10 != row {
				t.Errorf("batch mixes rows %d and %d", row, int(e.Target)/10)
			}
		}
	})
	if batches != 10 {
		t.Errorf("%d batches, want 10 (one per occupied row)", batches)
	}
}

func TestInsertionsDuringRound(t *testing.T) {
	// An event inserted for a *later* row while draining must be processed
	// within the same round; one for an earlier row waits for the next round.
	q := New(100, Config{RowSize: 10}, minCoalesce(), nil)
	q.Insert(event.New(5, 1))
	first := true
	seen := map[uint32]int{}
	round := 1
	for !q.Empty() && round < 5 {
		q.DrainRound(func(b []event.Event) {
			for _, e := range b {
				seen[e.Target] = round
				if first {
					first = false
					q.Insert(event.New(50, 2)) // later row: same round
					q.Insert(event.New(2, 3))  // earlier row: next round
				}
			}
		})
		round++
	}
	if seen[5] != 1 || seen[50] != 1 {
		t.Errorf("targets 5,50 rounds = %d,%d; want 1,1", seen[5], seen[50])
	}
	if seen[2] != 2 {
		t.Errorf("target 2 round = %d; want 2", seen[2])
	}
}

func TestNonCoalescingOverflow(t *testing.T) {
	st := &stats.Counters{}
	q := New(10, Config{RowSize: 4}, minCoalesce(), st)
	q.SetCoalescing(false)
	q.Insert(event.Event{Target: 3, Value: 1, Source: 7, Flags: event.FlagDelete})
	q.Insert(event.Event{Target: 3, Value: 2, Source: 8, Flags: event.FlagDelete})
	q.Insert(event.Event{Target: 3, Value: 3, Source: 9, Flags: event.FlagDelete})
	if q.Len() != 3 {
		t.Fatalf("Len=%d, want 3 (no coalescing)", q.Len())
	}
	if n := len(q.overflow.fill); n != 2 {
		t.Fatalf("overflow=%d, want 2", n)
	}
	if st.EventsCoalesced != 0 {
		t.Error("events were coalesced in non-coalescing mode")
	}
	var got []event.Event
	q.Drain(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3", len(got))
	}
	// All three sources must survive.
	sources := map[uint32]bool{}
	for _, e := range got {
		sources[e.Source] = true
	}
	for _, s := range []uint32{7, 8, 9} {
		if !sources[s] {
			t.Errorf("source %d lost", s)
		}
	}
}

func TestCoalesceRetainsDominantSource(t *testing.T) {
	q := New(10, Config{RowSize: 4}, minCoalesce(), nil)
	q.Insert(event.Event{Target: 1, Value: 9, Source: 100})
	q.Insert(event.Event{Target: 1, Value: 4, Source: 200}) // dominates
	q.Insert(event.Event{Target: 1, Value: 6, Source: 300}) // does not
	var got []event.Event
	q.Drain(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 || got[0].Value != 4 || got[0].Source != 200 {
		t.Fatalf("got %v, want value 4 from source 200", got)
	}
}

func TestCoalesceMergesFlags(t *testing.T) {
	q := New(10, Config{RowSize: 4}, minCoalesce(), nil)
	q.Insert(event.Event{Target: 2, Value: math.Inf(1), Flags: event.FlagRequest})
	q.Insert(event.New(2, 5)) // insertion event coalesces with request (§3.5)
	var got []event.Event
	q.Drain(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 {
		t.Fatalf("drained %d, want 1", len(got))
	}
	if !got[0].IsRequest() || got[0].Value != 5 {
		t.Errorf("got %v, want request flag with value 5", got[0])
	}
}

func TestHighWater(t *testing.T) {
	q := New(100, Config{RowSize: 10}, minCoalesce(), nil)
	for v := 0; v < 30; v++ {
		q.Insert(event.New(uint32(v), 1))
	}
	q.Drain(func([]event.Event) {})
	if q.HighWater() != 30 {
		t.Errorf("high water = %d, want 30", q.HighWater())
	}
	if q.Len() != 0 {
		t.Error("len after drain should be 0")
	}
}

func TestQuickOneLiveEventPerVertex(t *testing.T) {
	// Property: with coalescing on, Len never exceeds the number of distinct
	// targets inserted, and draining yields exactly one event per target.
	f := func(targets []uint8) bool {
		q := New(256, Config{RowSize: 32}, sumCoalesce(), nil)
		distinct := map[uint8]float64{}
		for i, tg := range targets {
			q.Insert(event.New(uint32(tg), float64(i)))
			distinct[tg] += float64(i)
		}
		if q.Len() != len(distinct) {
			return false
		}
		got := map[uint32]float64{}
		q.Drain(func(b []event.Event) {
			for _, e := range b {
				got[e.Target] += e.Value
			}
		})
		if len(got) != len(distinct) {
			return false
		}
		for tg, sum := range distinct {
			if math.Abs(got[uint32(tg)]-sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetObsPartialSinks is the regression test for the publishObs nil deref:
// attaching only one of the two occupancy mirrors used to panic on the drain
// round because the guard for the live gauge also gated the high-water sink.
func TestSetObsPartialSinks(t *testing.T) {
	cases := []struct {
		name string
		live *obs.Gauge
		high *obs.Max
	}{
		{"high_only", nil, &obs.Max{}},
		{"live_only", &obs.Gauge{}, nil},
		{"both", &obs.Gauge{}, &obs.Max{}},
		{"neither", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New(100, Config{RowSize: 10}, minCoalesce(), nil)
			q.Insert(event.New(7, 1))
			q.Insert(event.New(42, 2))
			q.SetObs(tc.live, tc.high)
			q.DrainRound(func([]event.Event) {}) // must not panic
			if tc.live != nil && tc.live.Load() != 0 {
				t.Errorf("live gauge = %d after full drain, want 0", tc.live.Load())
			}
			if tc.high != nil && tc.high.Load() != 2 {
				t.Errorf("high-water mirror = %d, want 2", tc.high.Load())
			}
		})
	}
}

// TestSparseDrainSkipsEmptyRows checks that a drain over a huge, almost-empty
// queue visits only the occupied rows: the callback count equals the number
// of distinct occupied rows, independent of the vertex-space size.
func TestSparseDrainSkipsEmptyRows(t *testing.T) {
	const n = 1 << 20
	q := New(n, Config{RowSize: 64}, minCoalesce(), nil)
	targets := []uint32{0, 63, 64, 500_000, n - 1} // rows 0, 0, 1, 7812, 16383
	for _, v := range targets {
		q.Insert(event.New(v, float64(v)))
	}
	batches := 0
	var got []uint32
	q.DrainRound(func(b []event.Event) {
		batches++
		for _, e := range b {
			got = append(got, e.Target)
		}
	})
	if batches != 4 {
		t.Errorf("callback ran %d times, want 4 (one per occupied row)", batches)
	}
	if len(got) != len(targets) {
		t.Fatalf("drained %d events, want %d", len(got), len(targets))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("drain order not ascending: %d then %d", got[i-1], got[i])
		}
	}
	if !q.Empty() {
		t.Error("queue not empty after drain")
	}
}

// TestSparseDrainPartialWords exercises occupancy words that straddle row
// boundaries (RowSize not a multiple of 64), where drainRow must mask both
// ends of a word.
func TestSparseDrainPartialWords(t *testing.T) {
	q := New(1000, Config{RowSize: 100}, sumCoalesce(), nil)
	ins := []uint32{0, 99, 100, 101, 163, 164, 199, 200, 999}
	for _, v := range ins {
		q.Insert(event.New(v, 1))
	}
	var got []uint32
	q.Drain(func(b []event.Event) {
		for _, e := range b {
			got = append(got, e.Target)
		}
	})
	if len(got) != len(ins) {
		t.Fatalf("drained %v, want all of %v", got, ins)
	}
	for i, v := range ins {
		if got[i] != v {
			t.Fatalf("drain[%d] = %d, want %d", i, got[i], v)
		}
	}
}

func TestPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range target")
		}
	}()
	q := New(4, Config{RowSize: 2}, minCoalesce(), nil)
	q.Insert(event.New(10, 1))
}
