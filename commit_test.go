package jetstream

import (
	"errors"
	"fmt"
	"testing"

	"jetstream/internal/fault"
	"jetstream/internal/obs"
)

// TestTracePairsOnlyCommittedBatches: a batch emits its BatchStart/BatchEnd
// pair only once it commits. A Strict rejection and a batch whose journal
// append fails (ENOSPC) leave the trace stream exactly as it was, so every
// start an observer sees has its end.
func TestTracePairsOnlyCommittedBatches(t *testing.T) {
	const n = 2
	refStates, _ := runReference(t, SSSP(0), false, n)
	snapBytes, recEnd := measureLayout(t, SSSP(0), false, n, refStates)
	d := fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1,
		FullAtByte: snapBytes + recEnd[0] + (recEnd[1]-recEnd[0])/2})
	var c obs.Collector
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWALOptions(d.Root(), WALOptions{FS: d}), WithObserver(&c))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
		t.Fatal(err)
	}
	committed := len(c.Events())
	if c.Count(obs.KindBatchStart) != 1 || c.Count(obs.KindBatchEnd) != 1 {
		t.Fatalf("committed batch traced start=%d end=%d, want 1/1", c.Count(obs.KindBatchStart), c.Count(obs.KindBatchEnd))
	}

	bad := Batch{Deletes: []Edge{absentEdge(sys.Graph())}}
	var be *BatchError
	if _, err := sys.ApplyBatch(bad); !errors.As(err, &be) {
		t.Fatalf("strict batch = %v, want a *BatchError", err)
	}
	if got := len(c.Events()); got != committed {
		t.Fatalf("strict rejection emitted %d trace events", got-committed)
	}
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("batch 2 on a full disk = %v, want ErrNoSpace", err)
	}
	if got := len(c.Events()); got != committed {
		t.Fatalf("failed journal append emitted %d trace events", got-committed)
	}
}

// TestApplyBatchAllocs pins the allocations of one steady-state batch on a
// selective System: 16 weight changes, which edit the slab in place (no
// re-lay, no relocation). In the windowed arm the window step allocates no
// set of the batch's deleted pairs; its TTL is longer than the run, so
// nothing expires.
func TestApplyBatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want float64
	}{
		{"windowless", nil, 4},
		// The five more are the ring bucket growing to 16 keys (1, 2, 4, 8, 16).
		{"windowed", []Option{WithWindow(1000)}, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := RMAT(RMATConfig{Vertices: 1024, Edges: 8192, Seed: 31})
			sys, err := New(g, SSSP(0), durOpts(tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			var flip [2]Batch // 16 weight changes, and the 16 changed back
			edges := g.Edges()
			for j := range 16 {
				e := edges[j*97]
				up := e
				up.Weight += float64(j%3) + 0.5
				flip[0].Deletes, flip[0].Inserts = append(flip[0].Deletes, e), append(flip[0].Inserts, up)
				flip[1].Deletes, flip[1].Inserts = append(flip[1].Deletes, up), append(flip[1].Inserts, e)
			}
			i := 0
			step := func() {
				if _, err := sys.ApplyBatch(flip[i%2]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 4 { // the first batch re-lays the dense graph
				step()
			}
			before := sys.Graph().LayoutStats()
			allocs := testing.AllocsPerRun(50, step)
			if after := sys.Graph().LayoutStats(); after.Relocations != before.Relocations || after.Relayouts != before.Relayouts {
				t.Fatalf("layout moved during the run: %+v -> %+v", before, after)
			}
			if allocs != tc.want {
				t.Fatalf("ApplyBatch allocates %v times per batch, want %v", allocs, tc.want)
			}
		})
	}
}

// TestPerRecordReplayCountsLikeLive: recovering a log record by record adds
// to the restored counters exactly what the live batches added, so the
// recovered TotalStats equal the live run's for every kernel, with and
// without a window. With the cycle model on, the memory-system counters
// (BytesTransferred, DRAMAccesses, RowHits) and the cycles differ: a
// checkpoint carries no cache or row-buffer state, so the replay starts on a
// cold memory system. Every functional counter is still equal.
func TestPerRecordReplayCountsLikeLive(t *testing.T) {
	for _, timed := range []bool{false, true} {
		for _, ttl := range []int{0, 4} {
			for _, k := range durKernels {
				t.Run(fmt.Sprintf("%s/window%d/timing=%v", k.name, ttl, timed), func(t *testing.T) {
					opts := []Option{WithTiming(timed), WithParallelism(1), WithWAL(t.TempDir())}
					if ttl > 0 {
						opts = append(opts, WithWindow(ttl))
					}
					sys, err := New(durGraph(k.sym), k.alg(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					sys.RunInitial()
					gen := durStream(k.sym)
					for i := 0; i < 9; i++ {
						if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
							t.Fatal(err)
						}
					}
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					rec, err := recoverDir(sys.walDir, ReplayPerRecord, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer rec.Close()
					if r := rec.Recovery(); r.Replay != ReplayPerRecord || r.Replayed != 9 {
						t.Fatalf("recovery %+v, want 9 records per record", r)
					}
					live, got := sys.TotalStats(), rec.TotalStats()
					if timed {
						for _, c := range []*Counters{&live, &got} {
							c.BytesTransferred, c.DRAMAccesses, c.RowHits, c.Cycles = 0, 0, 0, 0
						}
					}
					if got != live {
						t.Fatalf("recovered counters differ from the live run:\n got  %+v\n want %+v", got, live)
					}
				})
			}
		}
	}
}
