package queue

import (
	"testing"

	"jetstream/internal/event"
	"jetstream/internal/stats"
)

var shardMinCoalesce = minCoalesce()

// stripedOwner assigns vertex v to shard v % k.
func stripedOwner(n, k int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % k)
	}
	return owner
}

func TestShardedRoutingAndLen(t *testing.T) {
	const n, k = 10, 3
	sq := NewSharded(k, stripedOwner(n, k), Config{RowSize: 4}, shardMinCoalesce, true)
	if sq.K() != k {
		t.Fatalf("K() = %d, want %d", sq.K(), k)
	}
	for v := 0; v < n; v++ {
		if got, want := sq.Owner(uint32(v)), v%k; got != want {
			t.Fatalf("Owner(%d) = %d, want %d", v, got, want)
		}
		sq.Shard(sq.Owner(uint32(v))).Insert(event.New(uint32(v), float64(v)))
	}
	if sq.Len() != n {
		t.Fatalf("Len() = %d, want %d", sq.Len(), n)
	}
	// Shard 0 owns 0,3,6,9; shard 1 owns 1,4,7; shard 2 owns 2,5,8.
	for i, want := range []int{4, 3, 3} {
		if got := sq.Shard(i).Len(); got != want {
			t.Errorf("shard %d Len = %d, want %d", i, got, want)
		}
	}
}

func TestShardCoalescesLikeSequentialQueue(t *testing.T) {
	sq := NewSharded(2, stripedOwner(8, 2), Config{RowSize: 4}, shardMinCoalesce, true)
	s := sq.Shard(0)
	if s.Insert(event.Event{Target: 4, Value: 9, Source: 1}) {
		t.Fatal("first insert reported coalesced")
	}
	if !s.Insert(event.Event{Target: 4, Value: 3, Source: 2}) {
		t.Fatal("second insert for the occupied slot not coalesced")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after coalescing, want 1", s.Len())
	}
	var got []event.Event
	s.DrainRound(func(b []event.Event) { got = append(got, b...) })
	if len(got) != 1 || got[0].Value != 3 || got[0].Source != 2 {
		t.Fatalf("coalesced event = %+v, want value 3 from source 2", got)
	}
}

func TestShardOverflowWhenCoalescingOff(t *testing.T) {
	sq := NewSharded(1, stripedOwner(4, 1), Config{RowSize: 4}, shardMinCoalesce, false)
	s := sq.Shard(0)
	s.Insert(event.New(2, 1))
	if s.Insert(event.New(2, 2)) {
		t.Fatal("non-coalescing shard reported a merge")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (slot + overflow)", s.Len())
	}
	var got []float64
	s.DrainRound(func(b []event.Event) {
		for _, e := range b {
			got = append(got, e.Value)
		}
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drain order %v, want slot first then overflow FIFO", got)
	}
}

func TestShardDrainRoundAscendingLocalOrder(t *testing.T) {
	// Shard 0 of a 2-way stripe over 8 vertices owns 0,2,4,6 at local
	// indices 0..3; a drain must emit them in that (ascending) order in
	// RowSize batches.
	sq := NewSharded(2, stripedOwner(8, 2), Config{RowSize: 2}, shardMinCoalesce, true)
	s := sq.Shard(0)
	for _, v := range []uint32{6, 0, 4, 2} {
		s.Insert(event.New(v, float64(v)))
	}
	var order []uint32
	var batches int
	n := s.DrainRound(func(b []event.Event) {
		batches++
		if len(b) > 2 {
			t.Fatalf("batch of %d exceeds RowSize 2", len(b))
		}
		for _, e := range b {
			order = append(order, e.Target)
		}
	})
	if n != 4 || batches != 2 {
		t.Fatalf("emitted %d events in %d batches, want 4 in 2", n, batches)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("drain order %v not ascending", order)
		}
	}
	if !s.Empty() {
		t.Fatal("shard not empty after full drain")
	}
}

func TestShardedRejectsBadOwnership(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range owner accepted")
		}
	}()
	NewSharded(2, []int32{0, 2}, Config{RowSize: 4}, shardMinCoalesce, true)
}

func TestShardInsertOutOfRangePanics(t *testing.T) {
	sq := NewSharded(1, stripedOwner(2, 1), Config{RowSize: 4}, shardMinCoalesce, true)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range target accepted")
		}
	}()
	sq.Shard(0).Insert(event.New(7, 1))
}

// TestShardHighWater pins the peak-occupancy tracking: the high-water mark
// follows Len upward across both the slot and overflow paths, survives
// drains, and never decreases.
func TestShardHighWater(t *testing.T) {
	sq := NewSharded(1, stripedOwner(8, 1), Config{RowSize: 4}, shardMinCoalesce, false)
	s := sq.Shard(0)
	if s.HighWater() != 0 {
		t.Fatalf("fresh shard HighWater = %d, want 0", s.HighWater())
	}
	s.Insert(event.New(1, 1))
	s.Insert(event.New(2, 1))
	s.Insert(event.New(2, 2)) // overflow path: slot 2 already occupied
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after 3 live events, want 3", got)
	}
	s.DrainRound(func([]event.Event) {})
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after drain, want 3 (monotonic)", got)
	}
	s.Insert(event.New(3, 1))
	if got := s.HighWater(); got != 3 {
		t.Fatalf("HighWater = %d after refill below peak, want 3", got)
	}
}

// TestShardedAdopt moves a sequential queue's pending events — slots and the
// non-coalescing overflow — into the shards: routed by owner, merged where a
// target repeats, counted per destination, with no drain round charged and
// the source left empty and reusable.
func TestShardedAdopt(t *testing.T) {
	st := &stats.Counters{}
	q := New(8, Config{RowSize: 4}, shardMinCoalesce, st)
	sq := NewSharded(2, stripedOwner(8, 2), Config{RowSize: 4}, shardMinCoalesce, true)
	merged := make([]uint64, 2)

	if sq.Adopt(q, merged); sq.Len() != 0 {
		t.Fatalf("adopting a dormant queue made %d records live", sq.Len())
	}

	q.SetCoalescing(false)
	q.Insert(event.New(1, 5))
	q.Insert(event.New(4, 9))
	q.Insert(event.New(1, 3)) // overflow: slot 1 is taken and coalescing is off
	if sq.Adopt(q, merged); sq.Len() != 2 {
		t.Fatalf("Adopt made %d records live, want 2 (vertex 1 merges in its shard)", sq.Len())
	}
	if merged[0] != 0 || merged[1] != 1 {
		t.Fatalf("merged = %v, want the one merge attributed to shard 1", merged)
	}
	if !q.Empty() || len(q.overflow.fill) != 0 {
		t.Fatalf("source queue still holds %d events", q.Len())
	}
	if st.Rounds != 0 {
		t.Fatalf("Adopt charged %d drain rounds", st.Rounds)
	}
	if sq.Shard(0).Len() != 1 || sq.Shard(1).Len() != 1 {
		t.Fatalf("shard lengths %d/%d, want 1/1", sq.Shard(0).Len(), sq.Shard(1).Len())
	}
	sq.Shard(1).DrainRound(func(b []event.Event) {
		if len(b) != 1 || b[0].Target != 1 || b[0].Value != 3 {
			t.Fatalf("shard 1 drained %+v, want vertex 1 at the merged minimum 3", b)
		}
	})

	// The emptied queue takes new events.
	q.Insert(event.New(1, 1))
	if q.Len() != 1 {
		t.Fatalf("source queue Len = %d after reuse, want 1", q.Len())
	}
}

// TestShardedReset: a reset restarts the per-phase high-water marks and
// re-selects the coalescing mode, and refuses shards that still hold events.
func TestShardedReset(t *testing.T) {
	sq := NewSharded(1, stripedOwner(4, 1), Config{RowSize: 4}, shardMinCoalesce, true)
	s := sq.Shard(0)
	s.Insert(event.New(0, 1))
	s.Insert(event.New(1, 1))
	s.DrainRound(func([]event.Event) {})
	sq.Reset(false)
	if s.HighWater() != 0 {
		t.Fatalf("HighWater = %d after Reset, want 0", s.HighWater())
	}
	s.Insert(event.New(2, 1))
	if s.Insert(event.New(2, 2)) {
		t.Fatal("shard still coalescing after Reset(false)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted a shard holding live events")
		}
	}()
	sq.Reset(true)
}
