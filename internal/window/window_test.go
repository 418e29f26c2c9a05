package window

import (
	"testing"

	"jetstream/internal/graph"
)

func e(u, v int) graph.Edge {
	return graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v), Weight: 1}
}

func k(u, v int) Key { return Key{graph.VertexID(u), graph.VertexID(v)} }

func keys(t *testing.T, got []Key, want ...Key) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("expired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("expired %v, want %v", got, want)
		}
	}
}

func TestNewRejectsNonPositiveTTL(t *testing.T) {
	for _, ttl := range []int{0, -1} {
		if _, err := New(ttl); err == nil {
			t.Fatalf("New(%d): want error", ttl)
		}
	}
}

// TestSeedExpiresAfterTTL: epoch-0 edges die exactly at batch ttl, not a
// batch earlier or later.
func TestSeedExpiresAfterTTL(t *testing.T) {
	r, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	r.Seed(0, []graph.Edge{e(1, 2), e(0, 1)})
	for epoch := uint64(1); epoch < 3; epoch++ {
		if got := r.Expire(epoch, nil); len(got) != 0 {
			t.Fatalf("epoch %d: premature expiry %v", epoch, got)
		}
		r.Record(epoch, graph.Batch{})
	}
	keys(t, r.Expire(3, nil), k(0, 1), k(1, 2)) // sorted (src,dst)
	if r.Len() != 0 {
		t.Fatalf("Len = %d after full expiry", r.Len())
	}
}

// TestDeleteCancelsExpiry: a user-deleted edge must not reappear in the
// aging deletion set when its epoch drains.
func TestDeleteCancelsExpiry(t *testing.T) {
	r, _ := New(2)
	r.Seed(0, []graph.Edge{e(1, 2), e(3, 4)})
	r.Expire(1, nil)
	r.Record(1, graph.Batch{Deletes: []graph.Edge{e(1, 2)}})
	keys(t, r.Expire(2, nil), k(3, 4))
}

// TestReinsertRefreshesAge: delete+insert of the same pair (the weight-change
// idiom) restarts the pair's lifetime; the stale bucket entry is skipped.
func TestReinsertRefreshesAge(t *testing.T) {
	r, _ := New(2)
	r.Seed(0, []graph.Edge{e(1, 2)})
	r.Expire(1, nil)
	r.Record(1, graph.Batch{Deletes: []graph.Edge{e(1, 2)}, Inserts: []graph.Edge{e(1, 2)}})
	keys(t, r.Expire(2, nil)) // epoch 0 entry is stale
	r.Record(2, graph.Batch{})
	keys(t, r.Expire(3, nil), k(1, 2)) // refreshed copy dies at 1+2
}

// TestSkipExcludesButStillForgets: a pair the caller deletes in the expiring
// batch is excluded from the set yet leaves the age map.
func TestSkipExcludesButStillForgets(t *testing.T) {
	r, _ := New(1)
	r.Seed(0, []graph.Edge{e(1, 2), e(3, 4)})
	got := r.Expire(1, func(x Key) bool { return x == k(1, 2) })
	keys(t, got, k(3, 4))
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (skipped pair must still leave the map)", r.Len())
	}
}

// TestForgetBeforeExpire is the order a batch commits in: its deletes are
// recorded before the drain, so an expiring pair the batch deletes is not
// returned, and one it deletes and re-inserts survives at the new epoch.
func TestForgetBeforeExpire(t *testing.T) {
	r, _ := New(1)
	r.Seed(0, []graph.Edge{e(1, 2), e(3, 4), e(5, 6)})
	dels := graph.Batch{Deletes: []graph.Edge{e(1, 2), e(5, 6)}}
	r.Record(1, dels)
	keys(t, r.Expire(1, nil), k(3, 4))
	r.Record(1, graph.Batch{Inserts: []graph.Edge{e(5, 6)}})
	if got := r.Entries(); len(got) != 1 || got[0] != (Entry{Src: 5, Dst: 6, Epoch: 1}) {
		t.Fatalf("entries %v, want only (5,6) at epoch 1", got)
	}
	keys(t, r.Expire(2, nil), k(5, 6))
}

// TestExpireIdempotent: a second call for the same batch returns nothing.
func TestExpireIdempotent(t *testing.T) {
	r, _ := New(1)
	r.Seed(0, []graph.Edge{e(1, 2)})
	keys(t, r.Expire(1, nil), k(1, 2))
	keys(t, r.Expire(1, nil))
}

// TestBucketSlotReuse drives the ring well past one full revolution of the
// TTL+1 bucket slots and checks every epoch dies on schedule.
func TestBucketSlotReuse(t *testing.T) {
	const ttl = 2
	r, _ := New(ttl)
	r.Seed(0, []graph.Edge{e(0, 100)})
	for epoch := uint64(1); epoch <= 10; epoch++ {
		got := r.Expire(epoch, nil)
		if int64(epoch)-ttl >= 0 {
			want := k(int(epoch)-ttl, 100)
			keys(t, got, want)
		} else {
			keys(t, got)
		}
		r.Record(epoch, graph.Batch{Inserts: []graph.Edge{e(int(epoch), 100)}})
	}
	if r.Len() != ttl {
		t.Fatalf("Len = %d, want %d live epochs", r.Len(), ttl)
	}
}

// TestEntriesRoundTrip: Entries -> FromEntries reproduces ages and the expiry
// schedule exactly.
func TestEntriesRoundTrip(t *testing.T) {
	const ttl = 3
	r, _ := New(ttl)
	r.Seed(0, []graph.Edge{e(9, 9)})
	for epoch := uint64(1); epoch <= 5; epoch++ {
		r.Expire(epoch, nil)
		r.Record(epoch, graph.Batch{Inserts: []graph.Edge{e(int(epoch), 50)}})
	}
	ents := r.Entries()
	r2, err := FromEntries(ttl, 5, ents)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("restored Len = %d, want %d", r2.Len(), r.Len())
	}
	for epoch := uint64(6); epoch <= 9; epoch++ {
		a, b := r.Expire(epoch, nil), r2.Expire(epoch, nil)
		keys(t, b, a...)
		r.Record(epoch, graph.Batch{})
		r2.Record(epoch, graph.Batch{})
	}
}

// TestFromEntriesRejectsDamage: out-of-window epochs and duplicate pairs are
// checkpoint damage, not tolerated input.
func TestFromEntriesRejectsDamage(t *testing.T) {
	if _, err := FromEntries(2, 10, []Entry{{Src: 1, Dst: 2, Epoch: 3}}); err == nil {
		t.Fatal("epoch below window accepted")
	}
	if _, err := FromEntries(2, 10, []Entry{{Src: 1, Dst: 2, Epoch: 11}}); err == nil {
		t.Fatal("epoch beyond stream position accepted")
	}
	if _, err := FromEntries(2, 10, []Entry{
		{Src: 1, Dst: 2, Epoch: 9}, {Src: 1, Dst: 2, Epoch: 10},
	}); err == nil {
		t.Fatal("duplicate pair accepted")
	}
}

// TestSeedMidStream: a window attached at batch m gives the seeded edges a
// full TTL from that point.
func TestSeedMidStream(t *testing.T) {
	r, _ := New(2)
	r.Seed(7, []graph.Edge{e(1, 2)})
	keys(t, r.Expire(8, nil))
	r.Record(8, graph.Batch{})
	keys(t, r.Expire(9, nil), k(1, 2))
}

// TestExpireAllocs pins Expire's allocation budget: the returned set is its
// one allocation when something expires, and nothing is allocated when
// nothing does.
func TestExpireAllocs(t *testing.T) {
	r, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Batch{Inserts: make([]graph.Edge, 64)}
	for i := range b.Inserts {
		b.Inserts[i] = e(i, i+1)
	}
	epoch := uint64(0)
	expired := 0
	step := func() {
		epoch++
		expired = len(r.Expire(epoch, nil))
		r.Record(epoch, b)
	}
	for i := 0; i < 8; i++ { // warm the bucket slices and the age map
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 1 || expired != len(b.Inserts) {
		t.Fatalf("expiring %d edges: %v allocations, want 1 (the returned set)", expired, allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { expired = len(r.Expire(epoch, nil)) }); allocs != 0 || expired != 0 {
		t.Fatalf("repeated expiry of a drained epoch: %d edges, %v allocations, want none", expired, allocs)
	}
	empty := func() {
		epoch++
		expired = len(r.Expire(epoch, nil))
		r.Record(epoch, graph.Batch{})
	}
	empty()
	if allocs := testing.AllocsPerRun(50, empty); allocs != 0 || expired != 0 {
		t.Fatalf("draining empty epochs: %d edges, %v allocations, want none", expired, allocs)
	}
}
