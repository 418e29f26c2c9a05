package jetstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"testing"
	"time"

	"jetstream/internal/algo"
)

// buildStreamed runs a system through n batches and returns it with the
// generator used, so callers can keep streaming from where it stands.
func buildStreamed(t *testing.T, n int, opts ...Option) (*System, *StreamGenerator) {
	t.Helper()
	g := RMAT(RMATConfig{Vertices: 300, Edges: 2400, Seed: 21})
	sys, err := New(g, SSSP(0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 40, InsertFrac: 0.6, Seed: 22})
	for i := 0; i < n; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	return sys, gen
}

// absentEdge returns a valid insert naming an edge g does not contain.
func absentEdge(g *Graph) Edge {
	for dst := uint32(1); ; dst++ {
		if _, ok := g.HasEdge(0, dst); !ok {
			return Edge{Src: 0, Dst: dst, Weight: 2}
		}
	}
}

func TestCheckpointRoundTripMidStream(t *testing.T) {
	// Timing off: the cycle estimate of future batches depends on
	// microarchitectural state (caches, row buffers) that is deliberately not
	// checkpointed, so exact counter equality is asserted on the functional
	// configuration. Parallelism 1 keeps the continuation deterministic —
	// parallel drains interleave nondeterministically, so two identically
	// configured systems agree on state but not on exact counter values.
	orig, gen := buildStreamed(t, 5, WithTiming(false), WithParallelism(1), WithWatchdog(WatchdogConfig{Every: 4}))

	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Batches() != orig.Batches() {
		t.Fatalf("restored %d batches, want %d", restored.Batches(), orig.Batches())
	}
	if restored.TotalStats() != orig.TotalStats() {
		t.Fatalf("restored counters differ:\n%+v\nwant\n%+v", restored.TotalStats(), orig.TotalStats())
	}

	// Continue BOTH systems through the same five batches. The original's
	// generator stays authoritative; the recorded batches are replayed into
	// the restored system.
	for i := 0; i < 5; i++ {
		b := gen.Next(orig.Graph())
		ro, err := orig.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := restored.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Checked != rr.Checked || ro.FellBack != rr.FellBack {
			t.Errorf("batch %d: watchdog cadence diverged (%+v vs %+v)", i, ro, rr)
		}
	}

	so, sr := orig.State(), restored.State()
	for i := range so {
		if so[i] != sr[i] {
			t.Fatalf("vertex %d state %v != %v after continuation", i, sr[i], so[i])
		}
	}
	if orig.TotalStats() != restored.TotalStats() {
		t.Errorf("continued counters differ:\n%+v\nwant\n%+v", restored.TotalStats(), orig.TotalStats())
	}
	if d := restored.Verify(); d != 0 {
		t.Errorf("restored system diverged by %v", d)
	}
}

func TestCheckpointRoundTripWithTiming(t *testing.T) {
	// With the timing model on, restored per-vertex state is still
	// bit-identical; only future cycle estimates may drift (cold caches).
	orig, _ := buildStreamed(t, 3, WithTiming(true))
	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	so, sr := orig.State(), restored.State()
	for i := range so {
		if so[i] != sr[i] {
			t.Fatalf("vertex %d state %v != %v", i, sr[i], so[i])
		}
	}
	// Cumulative cycles resume from the checkpointed total.
	if restored.TotalStats().Cycles != orig.TotalStats().Cycles {
		t.Errorf("restored cycles %d, want %d", restored.TotalStats().Cycles, orig.TotalStats().Cycles)
	}
	if _, err := restored.ApplyBatch(Batch{Inserts: []Edge{absentEdge(restored.Graph())}}); err != nil {
		t.Fatal(err)
	}
	if d := restored.Verify(); d != 0 {
		t.Errorf("restored system diverged by %v", d)
	}
}

func TestCheckpointBeforeInitialRejected(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100, Edges: 500, Seed: 23})
	sys, _ := New(g, BFS(0))
	if err := sys.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("checkpoint before RunInitial accepted")
	}
}

func TestCheckpointRejectsUnreconstructibleKernel(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100, Edges: 500, Seed: 24})
	sys, err := New(g, PageRank(0), WithTiming(false))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	// Default PageRank reconstructs fine...
	if err := sys.Checkpoint(&bytes.Buffer{}); err != nil {
		t.Errorf("default pagerank checkpoint rejected: %v", err)
	}
	// ...but a kernel that cannot be rebuilt by name (PageRank with a
	// non-default damping) is rejected at checkpoint time, not restore time.
	custom := algo.NewPageRank(0)
	custom.Alpha = 0.2
	other, err := New(g, custom, WithTiming(false))
	if err != nil {
		t.Fatal(err)
	}
	other.RunInitial()
	if err := other.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("non-reconstructible kernel checkpoint accepted")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	orig, _ := buildStreamed(t, 2, WithTiming(false))
	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		if _, err := Restore(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: error %v does not wrap ErrCorruptCheckpoint", name, err)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("NOTACKPT"), good[8:]...))
	check("truncated header", good[:10])
	check("truncated payload", good[:len(good)/2])
	check("missing checksum", good[:len(good)-4])
	for _, off := range []int{20, len(good) / 2, len(good) - 20} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		check("bit flip", flipped)
	}
	// A pristine checkpoint still restores after all that.
	if _, err := Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

// TestRestoreIgnoresRetiredFlags sets each of the two retired configuration
// bytes (a second cycle model, the full-rebuild graph path) in an otherwise
// valid checkpoint: it restores bitwise and re-serializes with the byte back
// at zero.
func TestRestoreIgnoresRetiredFlags(t *testing.T) {
	orig, _ := buildStreamed(t, 3, WithTiming(true))
	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	name, _, _, err := algo.Params(orig.alg)
	if err != nil {
		t.Fatal(err)
	}
	// Header, then name, root, eps, opt, slices and timing ahead of the flags.
	const hdr = len(ckptMagic) + 4 + 8
	at := hdr + 4 + len(name) + 4 + 8 + 4 + 4 + 1
	for i, flag := range []string{"detailed", "rebuild"} {
		t.Run(flag, func(t *testing.T) {
			blob := append([]byte(nil), good...)
			if blob[at+i] != 0 {
				t.Fatalf("retired byte %d is %d, want 0", at+i, blob[at+i])
			}
			blob[at+i] = 1
			crc := crc64.Checksum(blob[hdr:len(blob)-8], ckptCRC)
			binary.LittleEndian.PutUint64(blob[len(blob)-8:], crc)
			sys, err := Restore(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if !bitwiseEqual(sys.State(), orig.State()) {
				t.Fatal("restored state diverges")
			}
			var out bytes.Buffer
			if err := sys.Checkpoint(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), good) {
				t.Fatal("re-serialized checkpoint differs from the unflagged bytes")
			}
		})
	}
}

// TestCheckpointMidDeltaChain takes a checkpoint while the live graph is a
// slacked delta head with frozen ancestors, and checks the restored graph is
// the canonical compact form with identical logical content.
func TestCheckpointMidDeltaChain(t *testing.T) {
	orig, gen := buildStreamed(t, 6, WithTiming(false), WithParallelism(1))
	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	og, rg := orig.Graph(), restored.Graph()
	if err := rg.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
	// The restored graph is dense (slack is never serialized) but must carry
	// the same logical content as the slacked original.
	if rg.EdgeSlots() != rg.NumEdges() {
		t.Errorf("restored graph has slack: %d slots for %d edges", rg.EdgeSlots(), rg.NumEdges())
	}
	oe, re := og.Edges(), rg.Edges()
	if len(oe) != len(re) {
		t.Fatalf("edge counts differ: %d vs %d", len(oe), len(re))
	}
	for i := range oe {
		if oe[i] != re[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, oe[i], re[i])
		}
	}
	// Both continue through the same batches to identical states.
	for i := 0; i < 3; i++ {
		b := gen.Next(orig.Graph())
		if _, err := orig.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if d := algo.MaxAbsDiff(orig.State(), restored.State()); d != 0 {
		t.Errorf("states differ by %v after continuation", d)
	}
}

// nanCheckpoint is a valid SSSP checkpoint whose source vertex holds NaN.
func nanCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	sys, err := New(RMAT(RMATConfig{Vertices: 32, Edges: 128, Seed: 3}), SSSP(0), WithTiming(false))
	if err != nil {
		tb.Fatal(err)
	}
	sys.RunInitial()
	sys.StateRef()[0] = math.NaN()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsNaNState: a NaN vertex state never settles (NaN != NaN
// reads as a change), so a restored one would hang the next batch touching
// it. Restore refuses it; ±Inf, a kernel identity, stays legal. A restore
// that accepts it runs the batch under a deadline, so the test fails rather
// than hangs.
func TestRestoreRejectsNaNState(t *testing.T) {
	sys, err := Restore(bytes.NewReader(nanCheckpoint(t)))
	if err == nil {
		done := make(chan error, 1)
		go func() {
			_, err := sys.ApplyBatch(Batch{Inserts: []Edge{absentEdge(sys.Graph())}})
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("NaN state restored; the next batch returned %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("NaN state restored; the next batch out of the NaN vertex did not return within 5s")
		}
	}
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("NaN state: %v, want ErrCorruptCheckpoint", err)
	}

	inf, err := New(RMAT(RMATConfig{Vertices: 32, Edges: 128, Seed: 3}), SSSP(0), WithTiming(false))
	if err != nil {
		t.Fatal(err)
	}
	inf.RunInitial()
	inf.StateRef()[1] = math.Inf(1)
	var buf bytes.Buffer
	if err := inf.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf); err != nil {
		t.Fatalf("+Inf state rejected: %v", err)
	}
}
