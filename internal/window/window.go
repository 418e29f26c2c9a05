// Package window implements the infinite-window streaming layer: a sliding
// window of TTL batch epochs over the edge stream. Every edge carries the
// epoch (batch number) it was inserted at; when the stream advances to batch
// k, every edge whose insertion epoch is at or below k-TTL falls out of the
// window, and the layer synthesizes the aging-based deletion set the engine
// applies through the ordinary delta path before the functional phase runs.
// This is the X-Stream model of unending streams (cybersecurity, fraud, IoT)
// where edges age out rather than accumulate forever.
//
// The structure is a ring of TTL+1 epoch buckets plus an age map:
//
//   - Record(epoch, batch) appends each inserted edge key to the bucket
//     epoch mod (TTL+1) and stamps its age; deleted keys leave the age map.
//   - Expire(epoch, skip) drains the buckets whose epochs fall out of the
//     window at batch `epoch` and returns the still-live keys they held.
//
// A bucket entry is never updated in place: an edge deleted or re-inserted
// after its recording leaves a stale entry behind, and Expire skips any entry
// whose age-map stamp no longer matches the draining epoch. Expiry therefore
// costs O(expired + stale) per batch — never O(V) or O(E) — and recording
// costs amortized O(1) per insert. Bucket reuse is safe because the slot for
// epoch e is drained at batch e+TTL, strictly before epoch e+TTL+1 records
// into the same slot.
package window

import (
	"fmt"
	"slices"

	"jetstream/internal/graph"
)

// Key identifies an edge by its endpoints — the (src,dst) pair is the edge's
// identity (paper §2.1); a same-batch delete+insert of one pair (the weight
// modification idiom) refreshes the pair's age.
type Key struct {
	Src, Dst graph.VertexID
}

// Entry is one live tracked edge with its insertion epoch — the unit a
// checkpoint serializes (format v5).
type Entry struct {
	Src, Dst graph.VertexID
	Epoch    uint64
}

// cmpKey orders keys by (src,dst). A named, non-capturing comparator feeds
// slices.SortFunc without allocating: the sort.Slice formulation boxed the
// slice into an interface and built a closure plus a reflect-based swapper
// on every expiry.
func cmpKey(a, b Key) int {
	if a.Src != b.Src {
		if a.Src < b.Src {
			return -1
		}
		return 1
	}
	switch {
	case a.Dst < b.Dst:
		return -1
	case a.Dst > b.Dst:
		return 1
	}
	return 0
}

// cmpEntry orders entries by (src,dst) — pairs are unique, so no tiebreak.
func cmpEntry(a, b Entry) int {
	return cmpKey(Key{a.Src, a.Dst}, Key{b.Src, b.Dst})
}

// Ring tracks per-edge insertion age over a sliding window of TTL batch
// epochs. It is not safe for concurrent use; the owning System serializes
// access, exactly like the engine it feeds.
type Ring struct {
	ttl     int
	buckets [][]Key
	age     map[Key]uint64
	// done is the highest epoch already drained by Expire (-1 before the
	// first expiry). Expire advances it monotonically, which makes a repeated
	// Expire call for the same batch idempotent.
	done int64
}

// New returns an empty ring with the given lifetime in batches. An edge
// recorded at epoch e expires at batch e+ttl, so after batch k the window
// holds exactly the epochs (k-ttl, k].
func New(ttl int) (*Ring, error) {
	if ttl < 1 {
		return nil, fmt.Errorf("window: ttl %d batches: must be at least 1", ttl)
	}
	return &Ring{
		ttl:     ttl,
		buckets: make([][]Key, ttl+1),
		age:     make(map[Key]uint64),
		done:    -1,
	}, nil
}

// TTL returns the window lifetime in batches.
func (r *Ring) TTL() int { return r.ttl }

// Len returns the number of live tracked edges.
func (r *Ring) Len() int { return len(r.age) }

// Seed registers the edges of a pre-existing graph at epoch atBatch — epoch 0
// for a fresh system, or the restored batch count when a window is attached
// to a mid-stream state (the seeded edges then live a full TTL from that
// point). Seed must run before any Record or Expire call.
func (r *Ring) Seed(atBatch uint64, edges []graph.Edge) {
	slot := atBatch % uint64(len(r.buckets))
	for _, e := range edges {
		k := Key{e.Src, e.Dst}
		r.age[k] = atBatch
		r.buckets[slot] = append(r.buckets[slot], k)
	}
	if d := int64(atBatch) - int64(r.ttl); d > r.done {
		r.done = d
	}
}

// Record registers the sanitized user batch applied as epoch: deleted pairs
// leave the age map (their bucket entries go stale) and inserted pairs are
// stamped at epoch. The caller must have called Expire(epoch, ...) first —
// Record and Expire share the bucket slot arithmetic and expiry-before-record
// ordering is what keeps slot reuse safe.
func (r *Ring) Record(epoch uint64, b graph.Batch) {
	for _, e := range b.Deletes {
		delete(r.age, Key{e.Src, e.Dst})
	}
	slot := epoch % uint64(len(r.buckets))
	for _, e := range b.Inserts {
		k := Key{e.Src, e.Dst}
		r.age[k] = epoch
		r.buckets[slot] = append(r.buckets[slot], k)
	}
}

// Expire drains every epoch that falls out of the window at batch epoch and
// returns the expiring edge keys in ascending (src,dst) order — the
// deterministic aging-based deletion set for this batch. Entries whose age
// stamp no longer matches the draining epoch (deleted or re-inserted since
// recording) are skipped. skip, when non-nil, marks pairs the caller is
// already deleting in this batch: they leave the age map but are excluded
// from the returned set so the merged deletion batch holds no duplicates.
func (r *Ring) Expire(epoch uint64, skip func(Key) bool) []Key {
	limit := int64(epoch) - int64(r.ttl)
	if limit <= r.done {
		return nil
	}
	// Size the result once from the bucket lengths (an upper bound counting
	// stale entries) so the returned set is this batch's single allocation
	// and the appends below never grow it.
	n := 0
	for e := r.done + 1; e <= limit; e++ {
		n += len(r.buckets[uint64(e)%uint64(len(r.buckets))])
	}
	out := make([]Key, 0, n)
	for e := r.done + 1; e <= limit; e++ {
		slot := uint64(e) % uint64(len(r.buckets))
		for _, k := range r.buckets[slot] {
			if a, ok := r.age[k]; !ok || a != uint64(e) {
				continue // stale entry: deleted or re-inserted since
			}
			delete(r.age, k)
			if skip != nil && skip(k) {
				continue
			}
			out = append(out, k)
		}
		r.buckets[slot] = r.buckets[slot][:0]
	}
	r.done = limit
	if len(out) == 0 {
		return nil // preserve the historical nil result for empty expiries
	}
	slices.SortFunc(out, cmpKey)
	return out
}

// Entries returns the live tracked edges in ascending (src,dst) order — the
// canonical serialization a checkpoint records.
func (r *Ring) Entries() []Entry {
	out := make([]Entry, 0, len(r.age))
	for k, e := range r.age {
		out = append(out, Entry{Src: k.Src, Dst: k.Dst, Epoch: e})
	}
	slices.SortFunc(out, cmpEntry)
	return out
}

// FromEntries rebuilds a ring from a checkpoint: ttl, the stream position the
// entries were captured at, and the live entries themselves. Every entry must
// still be inside the window at that position ((batches-ttl, batches]) and no
// pair may repeat; violations indicate a damaged checkpoint and are rejected.
func FromEntries(ttl int, batches uint64, entries []Entry) (*Ring, error) {
	r, err := New(ttl)
	if err != nil {
		return nil, err
	}
	if d := int64(batches) - int64(ttl); d > r.done {
		r.done = d
	}
	// Size the age map and every bucket once: a restored window can hold a
	// whole seeded graph in one epoch, and growing to it rehashes and copies
	// each structure several times.
	r.age = make(map[Key]uint64, len(entries))
	counts := make([]int, len(r.buckets))
	for _, en := range entries {
		counts[en.Epoch%uint64(len(r.buckets))]++
	}
	for i, c := range counts {
		r.buckets[i] = make([]Key, 0, c)
	}
	for _, en := range entries {
		if en.Epoch > batches || int64(en.Epoch) <= r.done {
			return nil, fmt.Errorf("window: entry (%d,%d) epoch %d outside window (%d, %d]",
				en.Src, en.Dst, en.Epoch, r.done, batches)
		}
		k := Key{en.Src, en.Dst}
		if _, dup := r.age[k]; dup {
			return nil, fmt.Errorf("window: duplicate entry (%d,%d)", en.Src, en.Dst)
		}
		r.age[k] = en.Epoch
		slot := en.Epoch % uint64(len(r.buckets))
		r.buckets[slot] = append(r.buckets[slot], k)
	}
	return r, nil
}
