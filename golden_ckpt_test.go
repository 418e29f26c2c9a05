package jetstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRestoreReadsOldCheckpointVersions pins the checkpoint format from both
// sides. The v5 golden under results/ (the current format: a windowed wcc
// System with a WAL attached, checkpointed mid-stream) was written by the
// commit before Restore was rebuilt on Config, so it pins the format across
// that change: it must restore bitwise, then expire exactly what the
// uninterrupted run expires, and re-serialize to the same bytes. Versions 2
// through 4, which earlier builds read, are refused by the header check with
// an error that names the version this build reads — before the payload is
// looked at, so an old file can never be half-understood.
func TestRestoreReadsOldCheckpointVersions(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("results", "checkpoint_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{2, 3, 4} {
		t.Run(fmt.Sprintf("version-%d-refused", v), func(t *testing.T) {
			old := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(old[len(ckptMagic):], v)
			_, err := Restore(bytes.NewReader(old))
			if !errors.Is(err, ErrCorruptCheckpoint) || errors.Is(err, ErrTruncated) {
				t.Fatalf("Restore = %v, want ErrCorruptCheckpoint (not truncation)", err)
			}
			if want := fmt.Sprintf("version %d (this build reads version 5 only)", v); !strings.Contains(err.Error(), want) {
				t.Fatalf("Restore = %q, want it to say %q", err, want)
			}
		})
	}

	t.Run("checkpoint_v5.golden", func(t *testing.T) {
		const cut = 3
		batches, refStates, refGraphs, refExpired := recordWindowRecoveryRun(t, WCC(), true, 6)
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
