package queue

import (
	"testing"

	"jetstream/internal/event"
)

// TestLazyAllocation pins the dormant-queue contract: construction allocates
// no slot array; the first Insert does; the empty-queue read surface
// (Len/Empty/Rows/DrainRound) works either way.
func TestLazyAllocation(t *testing.T) {
	q := New(1024, Config{RowSize: 16}, sumCoalesce(), nil)
	if q.occ != nil || q.slots != nil {
		t.Fatal("queue allocated slots at construction")
	}
	if q.Len() != 0 || !q.Empty() {
		t.Fatal("dormant queue not empty")
	}
	if got := q.Rows(); got != 64 {
		t.Fatalf("Rows() = %d, want 64", got)
	}
	if n := q.DrainRound(func([]event.Event) { t.Fatal("drain callback on dormant queue") }); n != 0 {
		t.Fatalf("DrainRound on dormant queue emitted %d", n)
	}

	q.Insert(event.New(5, 10))
	if q.occ == nil {
		t.Fatal("Insert did not materialize the queue")
	}
	if q.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", q.Len())
	}
	var got []event.Event
	q.Drain(func(batch []event.Event) { got = append(got, batch...) })
	if len(got) != 1 || got[0].Target != 5 || got[0].Value != 10 {
		t.Fatalf("drained %v, want the inserted event", got)
	}
}
