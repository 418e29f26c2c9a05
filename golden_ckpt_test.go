package jetstream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRestoreReadsOldCheckpointVersions proves the reader still accepts every
// format it claims to. The v2 and v3 goldens under results/ were generated
// before the format gained the rebuild byte (v3) and the WAL linkage fields
// (v4); restoring each must reproduce — bitwise — the state an uninterrupted
// run of the recorded configuration reaches. The v5 golden (the current
// format: a windowed wcc System with a WAL attached, checkpointed mid-stream)
// was written by the commit before Restore was rebuilt on Config, so it pins
// the format across that change: it must restore bitwise and then expire
// exactly what the uninterrupted run expires.
func TestRestoreReadsOldCheckpointVersions(t *testing.T) {
	// Re-derive the reference the goldens were captured from.
	ref, err := New(RMAT(RMATConfig{Vertices: 64, Edges: 256, Seed: 7}), SSSP(0),
		WithTiming(false), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 12, InsertFrac: 0.7, Seed: 99})
	for i := 0; i < 3; i++ {
		if _, err := ref.ApplyBatch(gen.Next(ref.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.State()

	for _, name := range []string{"checkpoint_v2.golden", "checkpoint_v3.golden"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("results", name))
			if err != nil {
				t.Fatal(err)
			}
			sys, rerr := Restore(f)
			if cerr := f.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if rerr != nil {
				t.Fatalf("Restore: %v", rerr)
			}
			if sys.Batches() != 3 {
				t.Fatalf("Batches = %d, want 3", sys.Batches())
			}
			if !bitwiseEqual(sys.State(), want) {
				t.Fatalf("%s: restored state diverges from reference", name)
			}
		})
	}

	t.Run("checkpoint_v5.golden", func(t *testing.T) {
		const cut = 3
		batches, refStates, refGraphs, refExpired := recordWindowRecoveryRun(t, WCC(), true, 6)
		blob, err := os.ReadFile(filepath.Join("results", "checkpoint_v5.golden"))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Restore(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if sys.Batches() != cut || sys.Window() != winRecTTL {
			t.Fatalf("Batches = %d, Window = %d, want %d and %d", sys.Batches(), sys.Window(), cut, winRecTTL)
		}
		if !bitwiseEqual(sys.State(), refStates[cut]) {
			t.Fatal("restored state diverges from reference")
		}
		if diff := sameEdges(sys.Graph(), refGraphs[cut]); diff != "" {
			t.Fatalf("restored graph diverges: %s", diff)
		}
		for i := cut; i < len(batches); i++ {
			res, err := sys.ApplyBatch(batches[i])
			if err != nil {
				t.Fatalf("batch %d: %v", i+1, err)
			}
			if res.Expired != refExpired[i+1] || !bitwiseEqual(sys.State(), refStates[i+1]) {
				t.Fatalf("batch %d: expired %d (reference %d) or state diverged", i+1, res.Expired, refExpired[i+1])
			}
		}
		// The format itself is pinned too: the restored System, given the
		// WAL binding the golden was written with, re-serializes to the
		// same bytes.
		again, err := Restore(bytes.NewReader(blob), WithWAL(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := again.Checkpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), blob) {
			t.Fatal("re-serialized checkpoint differs from the golden bytes")
		}
	})
}
