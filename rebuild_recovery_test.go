package jetstream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// The two folded recovery paths against per-record replay. A selective
// kernel's folded tail is either applied incrementally or, past the
// rebuildsTail crossover, merged into a fresh graph and evaluated from
// scratch. The rebuilt path re-derives the DAP dependency fields rather than
// carrying them, so besides the recovered state the differential drives
// later deletions through them and holds the result to a never-crashed run.

// rebuildKernels are the five selective kernels: durKernels' first four and
// the windowed wcc.
var rebuildKernels = append(durKernels[:4:4], windowRecoveryKernels[1])

// rebuildTTL is the windowed arm's TTL: a tail longer than it expires the
// whole initial graph, so the windowed net delta outgrows E.
const rebuildTTL = 4

// TestRecoveryPathsMatchPerRecordReplay journals tails of 1 to 16 records for
// every selective kernel, plain and windowed, and recovers each directory
// twice: with the path rebuildsTail picks and with per-record replay. Both
// must agree bitwise on state, edges and Batches(). The picked path then
// continues for 10 batches (with deletes, and expiry when windowed) and must
// match a never-crashed run bitwise after each. Each kernel and arm must see
// the predicate fire on one side and not on the other; a rebuilt recovery
// counts no cold-start fallback, and its checkpoint round-trips.
func TestRecoveryPathsMatchPerRecordReplay(t *testing.T) {
	const more = 10
	tails := []int{1, 16}
	for _, k := range rebuildKernels {
		for _, ttl := range []int{0, rebuildTTL} {
			t.Run(fmt.Sprintf("%s/ttl-%d", k.name, ttl), func(t *testing.T) {
				opts := durOpts()
				if ttl > 0 {
					opts = durOpts(WithWindow(ttl))
				}
				batches, states, graphs := recordRun(t, k.alg(), k.sym, tails[len(tails)-1]+more, opts)
				seen := map[ReplayPath]bool{}
				for _, tail := range tails {
					dir := t.TempDir()
					sys, err := New(durGraph(k.sym), k.alg(), append(opts, WithWAL(dir))...)
					if err != nil {
						t.Fatal(err)
					}
					sys.RunInitial()
					for _, b := range batches[:tail] {
						if _, err := sys.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
					}
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					ref, err := recoverDir(dir, ReplayPerRecord, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := ref.Close(); err != nil {
						t.Fatal(err)
					}
					rec, err := RecoverFromDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					path := rec.Recovery().Replay
					want := ReplayFolded
					if rebuildsTail(netDelta(graphs[0], graphs[tail]), graphs[0].NumEdges()) {
						want = ReplayRebuilt
					}
					if ref.Recovery().Replay != ReplayPerRecord || path != want {
						t.Fatalf("tail %d: paths %v / %v, want per-record / %v", tail, ref.Recovery().Replay, path, want)
					}
					seen[path] = true
					if diff := sameEdges(rec.Graph(), ref.Graph()); diff != "" {
						t.Fatalf("tail %d, %v: %s", tail, path, diff)
					}
					if !bitwiseEqual(rec.State(), ref.State()) || !bitwiseEqual(rec.State(), states[tail]) {
						t.Fatalf("tail %d, %v: state differs from per-record replay", tail, path)
					}
					if rec.Batches() != ref.Batches() || rec.Batches() != uint64(tail) {
						t.Fatalf("tail %d, %v: Batches() %d, per-record %d", tail, path, rec.Batches(), ref.Batches())
					}
					if path == ReplayRebuilt {
						checkRebuiltRecovery(t, rec, opts)
					}
					for i := tail; i < tail+more; i++ {
						if _, err := rec.ApplyBatch(batches[i]); err != nil {
							t.Fatalf("tail %d, %v: batch %d after recovery: %v", tail, path, i+1, err)
						}
						if !bitwiseEqual(rec.State(), states[i+1]) {
							t.Fatalf("tail %d, %v: batch %d after recovery diverges from the never-crashed run", tail, path, i+1)
						}
					}
					if diff := sameEdges(rec.Graph(), graphs[tail+more]); diff != "" {
						t.Fatalf("tail %d, %v: after %d more batches: %s", tail, path, more, diff)
					}
					if err := rec.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if !seen[ReplayFolded] || !seen[ReplayRebuilt] {
					t.Fatalf("tails %v took paths %v: the predicate must fire on one side only", tails, seen)
				}
			})
		}
	}
}

// checkRebuiltRecovery: a rebuilt recovery is a choice, not the watchdog's
// fallback, so it counts none; and a checkpoint taken right after it
// restores to the same state, edges, counters and dependency fields.
func checkRebuiltRecovery(t *testing.T, rec *System, opts []Option) {
	t.Helper()
	if n := rec.TotalStats().ColdStartFallbacks; n != 0 {
		t.Fatalf("rebuilt recovery counted %d cold-start fallbacks", n)
	}
	var ckpt bytes.Buffer
	if err := rec.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(bytes.NewReader(ckpt.Bytes()), opts...)
	if err != nil {
		t.Fatalf("restore the rebuilt recovery's checkpoint: %v", err)
	}
	if diff := sameEdges(back.Graph(), rec.Graph()); diff != "" || !bitwiseEqual(back.State(), rec.State()) {
		t.Fatalf("checkpoint after a rebuilt recovery does not round-trip: %s", diff)
	}
	if back.Batches() != rec.Batches() || back.TotalStats() != rec.TotalStats() ||
		!slices.Equal(back.js.Engine().Dep(), rec.js.Engine().Dep()) {
		t.Fatalf("restored from the rebuilt recovery's checkpoint: batches %d / %d, counters or dependency fields differ",
			back.Batches(), rec.Batches())
	}
}

// recordRun streams n batches through a never-crashed System built with opts
// and returns the batches with the state and graph after every prefix.
func recordRun(t *testing.T, alg Algorithm, sym bool, n int, opts []Option) (batches []Batch, states [][]float64, graphs []*Graph) {
	t.Helper()
	sys, err := New(durGraph(sym), alg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(sym)
	states, graphs = append(states, sys.State()), append(graphs, sys.Graph())
	for i := 0; i < n; i++ {
		b := gen.Next(sys.Graph())
		if _, err := sys.ApplyBatch(b); err != nil {
			t.Fatalf("reference batch %d: %v", i+1, err)
		}
		batches = append(batches, b)
		states, graphs = append(states, sys.State()), append(graphs, sys.Graph())
	}
	return batches, states, graphs
}

// netDelta counts the ops of the net delta that takes a to b: edges only one
// side holds, plus two for each pair whose weight changed.
func netDelta(a, b *Graph) int {
	ae, be := a.Edges(), b.Edges()
	n, i, j := 0, 0, 0
	for i < len(ae) || j < len(be) {
		switch {
		case j == len(be) || (i < len(ae) && (ae[i].Src < be[j].Src || ae[i].Src == be[j].Src && ae[i].Dst < be[j].Dst)):
			n, i = n+1, i+1
		case i == len(ae) || ae[i].Src != be[j].Src || ae[i].Dst != be[j].Dst:
			n, j = n+1, j+1
		default:
			if ae[i].Weight != be[j].Weight {
				n += 2
			}
			i, j = i+1, j+1
		}
	}
	return n
}
