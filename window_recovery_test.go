package jetstream

// Mid-window durability: the sliding window must survive both durability
// paths — the checkpoint (format v5 serializes the epoch ring) and WAL crash
// recovery (the journal holds user batches only; expiry is re-derived
// deterministically during replay). The crashpoint sweep kills the disk at
// swept byte offsets while a window is actively expiring edges and asserts a
// recovered session is bitwise-identical to the uninterrupted one — graph,
// state, and every subsequent expiry decision.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jetstream/internal/fault"
	"jetstream/internal/stream"
)

var windowRecoveryKernels = []struct {
	name string
	alg  func() Algorithm
	sym  bool
}{
	{"sssp", func() Algorithm { return SSSP(0) }, false},
	{"wcc", func() Algorithm { return WCC() }, true},
}

const winRecTTL = 2

// recordWindowRecoveryRun draws n adversarial batches against an evolving
// windowed system and returns the batch list plus, for every prefix k, the
// reference state, graph, and per-batch expired count of an uninterrupted run.
func recordWindowRecoveryRun(t *testing.T, alg Algorithm, sym bool, n int) (batches []Batch, states [][]float64, graphs []*Graph, expired []uint64) {
	t.Helper()
	g := durGraph(sym)
	sys, err := New(g, alg, durOpts(WithWindow(winRecTTL))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := stream.NewShape(stream.ShapeConfig{
		Kind: stream.HubChurn, BatchSize: 16, MaxWeight: 8, Symmetric: sym, Seed: 57,
	})
	states = append(states, sys.State())
	graphs = append(graphs, sys.Graph())
	expired = append(expired, 0)
	for i := 0; i < n; i++ {
		b := gen.Next(sys.Graph())
		res, err := sys.ApplyBatch(b)
		if err != nil {
			t.Fatalf("reference batch %d: %v", i+1, err)
		}
		batches = append(batches, b)
		states = append(states, sys.State())
		graphs = append(graphs, sys.Graph())
		expired = append(expired, res.Expired)
	}
	// The run must actually exercise expiry, or the sweep proves nothing.
	total := uint64(0)
	for _, e := range expired {
		total += e
	}
	if total == 0 {
		t.Fatal("recorded run never expired an edge; the sweep would be vacuous")
	}
	return batches, states, graphs, expired
}

// TestWindowCrashpointSweep kills the disk at swept cumulative offsets while
// the window is mid-expiry, recovers from the real directory, and asserts the
// recovered session (a) lands bitwise on the uninterrupted reference at the
// last durable batch and (b) continues the stream with identical expiry
// decisions and states through the end.
func TestWindowCrashpointSweep(t *testing.T) {
	const n = 6
	for _, k := range windowRecoveryKernels {
		t.Run(k.name, func(t *testing.T) {
			batches, refStates, refGraphs, refExpired := recordWindowRecoveryRun(t, k.alg(), k.sym, n)

			// Layout run: same stream through a fault-free WAL to map batch
			// boundaries to cumulative byte offsets.
			layoutDir := t.TempDir()
			lsys, err := New(durGraph(k.sym), k.alg(), durOpts(WithWindow(winRecTTL), WithWAL(layoutDir))...)
			if err != nil {
				t.Fatal(err)
			}
			lsys.RunInitial()
			var recEnd []int64
			for i, b := range batches {
				if _, err := lsys.ApplyBatch(b); err != nil {
					t.Fatalf("layout batch %d: %v", i+1, err)
				}
				recEnd = append(recEnd, lsys.WALSize())
				if !bitwiseEqual(lsys.State(), refStates[i+1]) {
					t.Fatalf("batch %d: WAL run diverged from reference", i+1)
				}
			}
			if err := lsys.Close(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(layoutDir, SnapshotName))
			if err != nil {
				t.Fatal(err)
			}
			snapBytes := fi.Size()

			var offsets []int64
			offsets = append(offsets, 0, snapBytes-1)
			prev := int64(0)
			for _, end := range recEnd {
				offsets = append(offsets, snapBytes+(prev+end)/2, snapBytes+end-1, snapBytes+end)
				prev = end
			}

			for _, off := range offsets {
				t.Run(fmt.Sprintf("off%d", off), func(t *testing.T) {
					dir := t.TempDir()
					d := fault.NewDisk(dir, fault.DiskConfig{KillAtByte: off, FlipBitAt: -1, FullAtByte: -1})
					sys, err := New(durGraph(k.sym), k.alg(), durOpts(WithWindow(winRecTTL), WithWALOptions(dir, WALOptions{FS: d}))...)
					if err != nil {
						t.Fatal(err)
					}
					sys.RunInitial()
					applied := 0
					for i := range batches {
						if _, err := sys.ApplyBatch(batches[i]); err != nil {
							break // the crash: the process would be dead here
						}
						applied++
					}

					rec, err := RecoverFromDir(dir)
					if off < snapBytes {
						if err == nil || !errors.Is(err, os.ErrNotExist) {
							t.Fatalf("pre-snapshot kill: recover err = %v, want missing snapshot", err)
						}
						if applied != 0 {
							t.Fatalf("%d batches acknowledged with no durable snapshot", applied)
						}
						return
					}
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					wantK := 0
					for _, end := range recEnd {
						if snapBytes+end <= off {
							wantK++
						}
					}
					if rec.Batches() != uint64(wantK) {
						t.Fatalf("recovered %d batches, want %d", rec.Batches(), wantK)
					}
					if rec.Window() != winRecTTL {
						t.Fatalf("recovered window TTL %d, want %d", rec.Window(), winRecTTL)
					}
					if !bitwiseEqual(rec.State(), refStates[wantK]) {
						t.Fatalf("recovered state diverges from reference at batch %d", wantK)
					}
					if diff := sameEdges(rec.Graph(), refGraphs[wantK]); diff != "" {
						t.Fatalf("recovered graph diverges at batch %d: %s", wantK, diff)
					}
					// Continue the stream: every remaining batch must expire
					// exactly the epochs the uninterrupted run expired, and
					// land on bitwise-identical state — the proof the epoch
					// ring itself recovered, not just the graph.
					for i := wantK; i < n; i++ {
						res, err := rec.ApplyBatch(batches[i])
						if err != nil {
							t.Fatalf("continuation batch %d: %v", i+1, err)
						}
						if res.Expired != refExpired[i+1] {
							t.Fatalf("continuation batch %d expired %d edges, reference expired %d", i+1, res.Expired, refExpired[i+1])
						}
						if !bitwiseEqual(rec.State(), refStates[i+1]) {
							t.Fatalf("continuation batch %d: state diverges from reference", i+1)
						}
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
				})
			}
		})
	}
}

// TestCheckpointV5WindowRoundTrip pins the checkpoint linkage directly: a
// mid-window Checkpoint restores to a system whose subsequent expiry schedule
// is identical, batch for batch, to the original's.
func TestCheckpointV5WindowRoundTrip(t *testing.T) {
	batches, refStates, _, refExpired := recordWindowRecoveryRun(t, SSSP(0), false, 6)
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWindow(winRecTTL))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	const cut = 3 // mid-window: seeded epochs are gone, recent epochs pending
	for i := 0; i < cut; i++ {
		if _, err := sys.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rst, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rst.Window() != winRecTTL {
		t.Fatalf("restored window TTL %d, want %d", rst.Window(), winRecTTL)
	}
	if !bitwiseEqual(rst.State(), refStates[cut]) {
		t.Fatal("restored state differs from reference at the cut")
	}
	for i := cut; i < len(batches); i++ {
		ro, err := rst.ApplyBatch(batches[i])
		if err != nil {
			t.Fatalf("restored batch %d: %v", i+1, err)
		}
		so, err := sys.ApplyBatch(batches[i])
		if err != nil {
			t.Fatalf("original batch %d: %v", i+1, err)
		}
		if ro.Expired != so.Expired || ro.Expired != refExpired[i+1] {
			t.Fatalf("batch %d: restored expired %d, original %d, reference %d", i+1, ro.Expired, so.Expired, refExpired[i+1])
		}
		if !bitwiseEqual(rst.State(), sys.State()) {
			t.Fatalf("batch %d: restored state diverged from original", i+1)
		}
	}
}

// TestRestoreWindowOntoWindowlessCheckpoint covers attaching a window at
// restore time to a checkpoint that never had one: the restored graph's edges
// must be re-seeded at the restored stream position (living a full TTL from
// there), not at epoch 0 — which would expire the whole graph immediately.
func TestRestoreWindowOntoWindowlessCheckpoint(t *testing.T) {
	g := durGraph(false)
	sys, err := New(g, SSSP(0), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	for i := 0; i < 4; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rst, err := Restore(bytes.NewReader(buf.Bytes()), WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	if rst.Window() != 3 {
		t.Fatalf("window TTL %d, want 3", rst.Window())
	}
	edges := uint64(rst.Graph().NumEdges())
	// Batches 5 and 6 (TTL not yet reached from the restore point): nothing
	// may expire. Batch 7 is the seeded cohort's boundary: everything the
	// stream didn't touch since the restore ages out at once.
	for k := 0; k < 2; k++ {
		res, err := rst.ApplyBatch(Batch{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Expired != 0 {
			t.Fatalf("batch %d after restore: %d edges expired before the TTL", k+1, res.Expired)
		}
	}
	res, err := rst.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != edges {
		t.Fatalf("TTL boundary expired %d edges, want the whole re-seeded graph (%d)", res.Expired, edges)
	}
}

// TestWindowAbortedBatchLeavesRingUntouched covers the two ways a batch is
// refused before its commit point on a windowed System — the Strict policy
// rejecting it, and the journal append hitting ENOSPC. Either must leave the
// graph, the state, the batch count and every ring age exactly as they were,
// and the next accepted batch must expire exactly what the uninterrupted run
// expires there: an abort that had advanced the ring would silently lose
// that cohort's expiry.
func TestWindowAbortedBatchLeavesRingUntouched(t *testing.T) {
	const n, cut = 6, 3
	batches, refStates, refGraphs, refExpired := recordWindowRecoveryRun(t, SSSP(0), false, n)
	if refExpired[cut+1] == 0 {
		t.Fatalf("reference batch %d expires nothing; the case would be vacuous", cut+1)
	}
	stream := func(d *fault.Disk) *System {
		sys, err := New(durGraph(false), SSSP(0), durOpts(WithWindow(winRecTTL), WithWALOptions(d.Root(), WALOptions{FS: d}))...)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunInitial()
		for i := 0; i < cut; i++ {
			if _, err := sys.ApplyBatch(batches[i]); err != nil {
				t.Fatalf("batch %d: %v", i+1, err)
			}
		}
		return sys
	}
	// Measure the bytes the first cut batches write, then size the disk to
	// fill up inside the next record.
	measure := fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1, FullAtByte: -1})
	if err := stream(measure).Close(); err != nil {
		t.Fatal(err)
	}
	d := fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1, FullAtByte: measure.Written() + 8})
	sys := stream(d)
	ages := sys.win.Entries()

	unchanged := func(after string) {
		t.Helper()
		if sys.Batches() != cut {
			t.Fatalf("%s: Batches = %d, want %d", after, sys.Batches(), cut)
		}
		if !bitwiseEqual(sys.State(), refStates[cut]) {
			t.Fatalf("%s: state moved", after)
		}
		if diff := sameEdges(sys.Graph(), refGraphs[cut]); diff != "" {
			t.Fatalf("%s: graph moved: %s", after, diff)
		}
		if !reflect.DeepEqual(sys.win.Entries(), ages) {
			t.Fatalf("%s: ring ages moved", after)
		}
	}
	bad := Batch{Inserts: []Edge{{Src: 0, Dst: 1 << 20, Weight: 1}}}
	var be *BatchError
	if _, err := sys.ApplyBatch(bad); !errors.As(err, &be) {
		t.Fatalf("out-of-range insert = %v, want *BatchError", err)
	}
	unchanged("Strict rejection")
	if _, err := sys.ApplyBatch(batches[cut]); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("batch %d on full disk = %v, want ErrNoSpace", cut+1, err)
	}
	unchanged("failed journal append")

	// The log is latched broken (Close reports it); detach it so the stream
	// can go on unjournaled.
	if err := sys.Close(); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("close of the broken log = %v, want ErrNoSpace", err)
	}
	for i := cut; i < n; i++ {
		res, err := sys.ApplyBatch(batches[i])
		if err != nil {
			t.Fatalf("batch %d after the aborts: %v", i+1, err)
		}
		if res.Expired != refExpired[i+1] {
			t.Fatalf("batch %d expired %d edges, reference expired %d", i+1, res.Expired, refExpired[i+1])
		}
		if !bitwiseEqual(sys.State(), refStates[i+1]) {
			t.Fatalf("batch %d: state diverges from reference", i+1)
		}
	}
}
