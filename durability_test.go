package jetstream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jetstream/internal/fault"
	"jetstream/internal/graph"
	"jetstream/internal/wal"
)

// The crashpoint harness. Every test here follows the same discipline: a
// reference run records the bitwise state after every batch, a fault run
// drives the identical deterministic stream into a WAL through an injected
// disk failure, and recovery must either reproduce the reference state at the
// last durable batch exactly or fail with the documented typed error — never
// panic, never silently diverge.

var durKernels = []struct {
	name string
	alg  func() Algorithm
	sym  bool
}{
	{"sssp", func() Algorithm { return SSSP(0) }, false},
	{"sswp", func() Algorithm { return SSWP(0) }, false},
	{"bfs", func() Algorithm { return BFS(0) }, false},
	{"cc", func() Algorithm { return CC() }, true},
	{"pagerank", func() Algorithm { return PageRank(0) }, false},
	{"adsorption", func() Algorithm { return Adsorption(0) }, false},
}

// durGraph builds the shared test graph for a kernel.
func durGraph(sym bool) *Graph {
	g := RMAT(RMATConfig{Vertices: 96, Edges: 384, Seed: 31})
	if sym {
		g = Symmetrize(g)
	}
	return g
}

func durStream(sym bool) *StreamGenerator {
	return NewStream(StreamConfig{BatchSize: 16, InsertFrac: 0.65, Symmetric: sym, Seed: 77})
}

// durOpts: sequential functional engine, so every run of the same stream is
// bit-identical — the property the sweep's bitwise assertions stand on.
func durOpts(extra ...Option) []Option {
	return append([]Option{WithTiming(false), WithParallelism(1)}, extra...)
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runReference streams n batches without a WAL and returns the state after
// every prefix (states[k] = state after k batches) plus each graph version,
// which lets a continuation advance a fresh generator identically.
func runReference(t *testing.T, alg Algorithm, sym bool, n int) (states [][]float64, graphs []*Graph) {
	t.Helper()
	_, states, graphs = recordRun(t, alg, sym, n, durOpts())
	return states, graphs
}

// measureLayout streams n batches through a fault-free WAL and returns the
// snapshot's byte size and the cumulative log size after each batch, which
// maps batch boundaries to exact cumulative disk offsets for the sweep.
func measureLayout(t *testing.T, alg Algorithm, sym bool, n int, refStates [][]float64) (snapBytes int64, recEnd []int64) {
	t.Helper()
	dir := t.TempDir()
	sys, err := New(durGraph(sym), alg, durOpts(WithWAL(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(sym)
	for i := 0; i < n; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatalf("layout batch %d: %v", i+1, err)
		}
		recEnd = append(recEnd, sys.WALSize())
		if !bitwiseEqual(sys.State(), refStates[i+1]) {
			t.Fatalf("batch %d: WAL run diverged from reference", i+1)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size(), recEnd
}

// TestCrashpointSweepAllKernels kills the disk at swept cumulative byte
// offsets — inside the baseline snapshot, mid-record, one byte short of a
// record boundary, and exactly on it — across all six kernels, and asserts
// the recovery contract at every point: either the recovered state is
// bitwise-equal to the uninterrupted reference at the last durable batch, or
// (when the kill predates the snapshot) recovery fails with the documented
// missing-snapshot error and no batch was ever acknowledged.
func TestCrashpointSweepAllKernels(t *testing.T) {
	const n = 5
	for _, k := range durKernels {
		t.Run(k.name, func(t *testing.T) {
			refStates, _ := runReference(t, k.alg(), k.sym, n)
			snapBytes, recEnd := measureLayout(t, k.alg(), k.sym, n, refStates)

			var offsets []int64
			// Inside the snapshot write: nothing durable yet.
			offsets = append(offsets, 0, snapBytes/2, snapBytes-1)
			// Log region: for each record, mid-record, one byte short of its
			// end, and exactly its end.
			prev := int64(0)
			for _, end := range recEnd {
				offsets = append(offsets, snapBytes+(prev+end)/2, snapBytes+end-1, snapBytes+end)
				prev = end
			}

			for _, off := range offsets {
				dir := t.TempDir()
				d := fault.NewDisk(dir, fault.DiskConfig{KillAtByte: off, FlipBitAt: -1, FullAtByte: -1})
				sys, err := New(durGraph(k.sym), k.alg(), durOpts(WithWALOptions(dir, WALOptions{FS: d}))...)
				if err != nil {
					t.Fatalf("off=%d: New: %v", off, err)
				}
				sys.RunInitial()
				gen := durStream(k.sym)
				applied := 0
				for i := 0; i < n; i++ {
					if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
						break // the crash: the process would be dead here
					}
					applied++
				}

				// Recovery happens in a "new process": the real filesystem.
				rec, err := RecoverFromDir(dir)
				if off < snapBytes {
					if err == nil || !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("off=%d (pre-snapshot): recover err = %v, want missing snapshot", off, err)
					}
					if applied != 0 {
						t.Fatalf("off=%d: %d batches acknowledged with no durable snapshot", off, applied)
					}
					continue
				}
				if err != nil {
					t.Fatalf("off=%d: recover: %v", off, err)
				}
				wantK := 0
				for _, end := range recEnd {
					if snapBytes+end <= off {
						wantK++
					}
				}
				if rec.Batches() != uint64(wantK) {
					t.Fatalf("off=%d: recovered %d batches, want %d", off, rec.Batches(), wantK)
				}
				if !bitwiseEqual(rec.State(), refStates[wantK]) {
					t.Fatalf("off=%d: recovered state diverges from reference at batch %d", off, wantK)
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("off=%d: close: %v", off, err)
				}
			}
		})
	}
}

// TestRecoverAndContinueBitwise crashes mid-stream, recovers, and checks the
// recovered system continues the exact stream: states after the remaining
// batches are bitwise-equal to an uninterrupted run's.
func TestRecoverAndContinueBitwise(t *testing.T) {
	const n, crashAfter = 6, 3
	refStates, refGraphs := runReference(t, SSSP(0), false, n)

	dir := t.TempDir()
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWAL(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	for i := 0; i < crashAfter; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the system is dropped without Close; per-batch fsync already
	// made every acknowledged batch durable.

	rec, err := RecoverFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches() != crashAfter {
		t.Fatalf("recovered %d batches, want %d", rec.Batches(), crashAfter)
	}
	// Advance a fresh generator through the prefix (its draws depend on the
	// evolving graph, which the reference recorded), then continue.
	gen2 := durStream(false)
	for i := 0; i < crashAfter; i++ {
		gen2.Next(refGraphs[i])
	}
	for i := crashAfter; i < n; i++ {
		if _, err := rec.ApplyBatch(gen2.Next(rec.Graph())); err != nil {
			t.Fatalf("continue batch %d: %v", i+1, err)
		}
		if !bitwiseEqual(rec.State(), refStates[i+1]) {
			t.Fatalf("batch %d after recovery diverges from uninterrupted run", i+1)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal kept pace: recovering again reproduces the final state.
	rec2, err := RecoverFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Batches() != n || !bitwiseEqual(rec2.State(), refStates[n]) {
		t.Fatalf("second recovery: %d batches", rec2.Batches())
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBitFlipOutcomes injects silent bit rot at chosen cumulative offsets
// and checks each documented outcome: rot in the snapshot refuses with
// ErrCorruptCheckpoint, rot mid-log refuses with ErrCorruptWAL, and rot in
// the final record presents as a torn tail — truncated, with recovery
// succeeding one batch earlier.
func TestWALBitFlipOutcomes(t *testing.T) {
	const n = 4
	refStates, _ := runReference(t, SSSP(0), false, n)
	snapBytes, recEnd := measureLayout(t, SSSP(0), false, n, refStates)

	cases := []struct {
		name   string
		flipAt int64
		check  func(t *testing.T, rec *System, err error)
	}{
		{"snapshot", snapBytes / 2, func(t *testing.T, rec *System, err error) {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
		}},
		{"mid-log", snapBytes + recEnd[0]/2, func(t *testing.T, rec *System, err error) {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("err = %v, want ErrCorruptWAL", err)
			}
		}},
		{"last-record", snapBytes + (recEnd[n-2]+recEnd[n-1])/2, func(t *testing.T, rec *System, err error) {
			if err != nil {
				t.Fatalf("torn-tail recovery failed: %v", err)
			}
			if rec.Batches() != n-1 || !bitwiseEqual(rec.State(), refStates[n-1]) {
				t.Fatalf("recovered %d batches, want %d (bitwise)", rec.Batches(), n-1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := fault.NewDisk(dir, fault.DiskConfig{KillAtByte: -1, FlipBitAt: tc.flipAt, FullAtByte: -1})
			sys, err := New(durGraph(false), SSSP(0), durOpts(WithWALOptions(dir, WALOptions{FS: d}))...)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			gen := durStream(false)
			for i := 0; i < n; i++ {
				if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
					t.Fatalf("batch %d: %v", i+1, err)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := RecoverFromDir(dir)
			tc.check(t, rec, err)
			if rec != nil {
				_ = rec.Close()
			}
		})
	}
}

// TestWALDiskFull models ENOSPC mid-stream: the batch that does not fit is
// rejected (typed, state untouched), the log latches broken so later batches
// cannot bury the torn tail, and recovery yields the durable prefix.
func TestWALDiskFull(t *testing.T) {
	const n = 4
	refStates, _ := runReference(t, SSSP(0), false, n)
	snapBytes, recEnd := measureLayout(t, SSSP(0), false, n, refStates)

	dir := t.TempDir()
	full := snapBytes + recEnd[0] + (recEnd[1]-recEnd[0])/2 // mid-record 2
	d := fault.NewDisk(dir, fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1, FullAtByte: full})
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWALOptions(dir, WALOptions{FS: d}))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("batch 2 on full disk = %v, want ErrNoSpace", err)
	}
	// The rejected batch left the in-memory state exactly at batch 1.
	if !bitwiseEqual(sys.State(), refStates[1]) {
		t.Fatal("failed journal mutated engine state")
	}
	// Broken latch: the next batch must not append after the torn record.
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err == nil {
		t.Fatal("append after ENOSPC succeeded")
	}

	rec, err := RecoverFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches() != 1 || !bitwiseEqual(rec.State(), refStates[1]) {
		t.Fatalf("recovered %d batches, want 1 (bitwise)", rec.Batches())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactTruncatesAndSurvivesCrash checks both halves of the compaction
// contract: a completed Compact bounds the log while preserving recovery, and
// a crash anywhere inside Compact — while the snapshot temp file is written,
// at its rename, at the log's temp file or at the log's rename — leaves a
// snapshot + log pair that still recovers the complete stream.
func TestCompactTruncatesAndSurvivesCrash(t *testing.T) {
	const n = 5
	refStates, _ := runReference(t, SSSP(0), false, n)
	recoverAll := func(name, dir string) {
		t.Helper()
		rec, err := RecoverFromDir(dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if rec.Batches() != n || !bitwiseEqual(rec.State(), refStates[n]) {
			t.Fatalf("%s: recovered %d batches, want %d (bitwise)", name, rec.Batches(), n)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Completed compaction.
	dir := t.TempDir()
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWAL(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	for i := 0; i < n; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.WALSize()
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if sys.WALSize() != 0 || before == 0 {
		t.Fatalf("WAL size %d -> %d after compact", before, sys.WALSize())
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	recoverAll("post-compact", dir)

	// Measure Compact on a clean disk: the bytes it writes (all of them the
	// snapshot's — the snapshot covers every record, so the log's temp file
	// is empty) and the filesystem operations it makes.
	clean := &opKillFS{Disk: fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1, FullAtByte: -1}), left: -1}
	sys = streamSystemThroughDisk(t, clean, n)
	pre := clean.Written()
	clean.armed = true
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	volume, ops := clean.Written()-pre, clean.ops
	if volume == 0 || ops == 0 {
		t.Fatalf("compact wrote %d bytes in %d operations", volume, ops)
	}

	// Kill the disk at every stride-th byte of that volume and at its last
	// byte: the write carrying that offset is torn.
	stride := max(volume/256, 1)
	for off := int64(0); ; off = min(off+stride, volume-1) {
		d := fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: pre + off, FlipBitAt: -1, FullAtByte: -1})
		sys := streamSystemThroughDisk(t, &opKillFS{Disk: d, left: -1}, n)
		if err := sys.Compact(); err == nil {
			t.Fatalf("byte %d of %d: compact on killed disk succeeded", off, volume)
		}
		recoverAll(fmt.Sprintf("byte %d of %d", off, volume), d.Root())
		if off == volume-1 {
			break
		}
	}
	// Kill it between two operations instead, after each of Compact's first
	// k: the renames and the log's temp file are reached here.
	for k := 0; k < ops; k++ {
		d := &opKillFS{Disk: fault.NewDisk(t.TempDir(), fault.DiskConfig{KillAtByte: -1, FlipBitAt: -1, FullAtByte: -1}), left: k}
		sys := streamSystemThroughDisk(t, d, n)
		d.armed = true
		if err := sys.Compact(); err == nil {
			t.Fatalf("operation %d of %d: compact on killed disk succeeded", k, ops)
		}
		recoverAll(fmt.Sprintf("operation %d of %d", k, ops), d.Root())
	}
}

// opKillFS is a fault.Disk that, once armed, lets left more filesystem
// operations through and fails every later one with fault.ErrDiskKilled —
// a crash between two operations, where KillAtByte can only crash inside a
// write. A negative left never kills; ops counts the operations made while
// armed.
type opKillFS struct {
	*fault.Disk
	armed     bool
	left, ops int
}

func (f *opKillFS) op() error {
	if !f.armed {
		return nil
	}
	if f.left == 0 {
		return fault.ErrDiskKilled
	}
	f.left--
	f.ops++
	return nil
}

func (f *opKillFS) MkdirAll(dir string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.Disk.MkdirAll(dir)
}

func (f *opKillFS) OpenAppend(path string) (wal.File, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.Disk.OpenAppend(path)
}

func (f *opKillFS) Create(path string) (wal.File, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.Disk.Create(path)
}

func (f *opKillFS) ReadFile(path string) ([]byte, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.Disk.ReadFile(path)
}

func (f *opKillFS) Rename(oldpath, newpath string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.Disk.Rename(oldpath, newpath)
}

func (f *opKillFS) Remove(path string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.Disk.Remove(path)
}

func (f *opKillFS) Truncate(path string, size int64) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.Disk.Truncate(path, size)
}

func (f *opKillFS) SyncDir(dir string) error {
	if err := f.op(); err != nil {
		return err
	}
	return f.Disk.SyncDir(dir)
}

// streamSystemThroughDisk streams n batches of the standard sssp stream into
// a WAL on the given disk and returns the live system.
func streamSystemThroughDisk(t *testing.T, d *opKillFS, n int) *System {
	t.Helper()
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWALOptions(d.Root(), WALOptions{FS: d}))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	for i := 0; i < n; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestNewRefusesResumableDir pins the footgun guards around WAL directories:
// New must not silently overwrite a resumable directory, and a directory
// whose snapshot vanished must not be treated as fresh.
func TestNewRefusesResumableDir(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(durGraph(false), SSSP(0), durOpts(WithWAL(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := durStream(false)
	if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(durGraph(false), SSSP(0), durOpts(WithWAL(dir))...); err == nil {
		t.Fatal("New on a resumable WAL directory succeeded")
	}

	// Snapshot lost, records present: refuse rather than replay from nowhere.
	if err := os.Remove(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durGraph(false), SSSP(0), durOpts(WithWAL(dir))...); err == nil {
		t.Fatal("New on a snapshotless journal succeeded")
	}
	if _, err := RecoverFromDir(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("recover without snapshot = %v, want ErrNotExist", err)
	}
}

func TestRecoverFromDirRejectsMismatchedWALDir(t *testing.T) {
	if _, err := RecoverFromDir(t.TempDir(), WithWAL("/somewhere/else")); err == nil {
		t.Fatal("mismatched WithWAL accepted")
	}
}

// TestWALSyncPoliciesThroughSystem drives the interval and none policies
// through the public API and checks the explicit Sync path.
func TestWALSyncPoliciesThroughSystem(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncEveryBatch, WALSyncInterval, WALSyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			sys, err := New(durGraph(false), SSSP(0),
				durOpts(WithWALOptions(dir, WALOptions{Sync: policy, Interval: 2}))...)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			gen := durStream(false)
			for i := 0; i < 3; i++ {
				if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverFromDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Batches() != 3 {
				t.Fatalf("recovered %d batches, want 3", rec.Batches())
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	if _, err := ParseWALSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseWALSyncPolicy accepted bogus")
	}
}

// TestCheckpointTruncatedVsCorrupt pins the typed split: missing tail bytes
// match both ErrCorruptCheckpoint and ErrTruncated; in-place damage matches
// only ErrCorruptCheckpoint.
func TestCheckpointTruncatedVsCorrupt(t *testing.T) {
	sys, _ := buildStreamed(t, 2, WithTiming(false))
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	cuts := []int{0, 5, len(ckptMagic) + 2, len(ckptMagic) + 12, len(blob) / 2, len(blob) - 8, len(blob) - 1}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			_, err := Restore(bytes.NewReader(blob[:cut]))
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
			}
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("cut at %d: ErrTruncated without ErrCorruptCheckpoint: %v", cut, err)
			}
		})
	}

	// Flips avoid the payload-length field (bytes 12..19): growing the
	// declared length is indistinguishable from a torn tail, so that one
	// field legitimately reports as truncation.
	flips := []int{0, len(ckptMagic), len(blob) / 2, len(blob) - 4}
	for _, at := range flips {
		t.Run(fmt.Sprintf("flip%d", at), func(t *testing.T) {
			dam := append([]byte(nil), blob...)
			dam[at] ^= 0x40
			_, err := Restore(bytes.NewReader(dam))
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("flip at %d: err = %v, want ErrCorruptCheckpoint", at, err)
			}
			if errors.Is(err, ErrTruncated) {
				t.Fatalf("flip at %d: in-place damage reported as truncation: %v", at, err)
			}
		})
	}
}

// TestRecoveryRefusesRecordThatDoesNotApply plants a journaled record that
// deletes an absent edge behind two good ones. Both replay paths must refuse
// it with a typed error rather than skip it: the folded path (sssp) with a
// *FoldError naming record 3, the per-record path (pagerank) with the
// record's *BatchError. The ingest policy, which the checkpoint restores,
// does not change that: a Repair tenant refuses the record too.
func TestRecoveryRefusesRecordThatDoesNotApply(t *testing.T) {
	for _, k := range []struct {
		name   string
		alg    Algorithm
		ingest IngestPolicy
		folded bool
	}{
		{"sssp", SSSP(0), Strict, true},
		{"pagerank", PageRank(0), Strict, false},
		{"sssp-repair", SSSP(0), Repair, true},
		{"pagerank-repair", PageRank(0), Repair, false},
	} {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			sys, err := New(durGraph(false), k.alg, durOpts(WithWAL(dir), WithIngest(k.ingest))...)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			gen := durStream(false)
			for i := 0; i < 2; i++ {
				if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			absent := absentEdge(sys.Graph())
			l, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(3, Batch{Deletes: []Edge{absent}}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			_, err = RecoverFromDir(dir)
			var be *BatchError
			if !errors.As(err, &be) || len(be.Issues) != 1 || be.Issues[0].Kind != graph.IssueMissingDelete ||
				be.Issues[0].Edge.Src != absent.Src || be.Issues[0].Edge.Dst != absent.Dst {
				t.Fatalf("recover = %v, want a *BatchError for the delete of absent (%d,%d)", err, absent.Src, absent.Dst)
			}
			var fe *FoldError
			if errors.As(err, &fe) != k.folded || (k.folded && fe.Seq != 3) {
				t.Fatalf("recover = %v: folded path %v, want %v at record 3", err, errors.As(err, &fe), k.folded)
			}
		})
	}
}

// TestRepairRecoveryReplaysSanitizedLog: a Repair tenant journals the
// sanitized batch, so its log replays clean on both paths even though every
// live batch carried a delete of an absent edge and a duplicate insert. The
// recovered state is bitwise the live one.
func TestRepairRecoveryReplaysSanitizedLog(t *testing.T) {
	for _, k := range []struct {
		name string
		alg  Algorithm
	}{{"sssp", SSSP(0)}, {"pagerank", PageRank(0)}} {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			sys, err := New(durGraph(false), k.alg, durOpts(WithWAL(dir), WithIngest(Repair), WithWindow(3))...)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			gen := durStream(false)
			for i := 0; i < 6; i++ {
				b := gen.Next(sys.Graph())
				b.Deletes = append(b.Deletes, absentEdge(sys.Graph()))
				if len(b.Inserts) > 0 {
					b.Inserts = append(b.Inserts, b.Inserts[0])
				}
				res, err := sys.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if res.Repaired == 0 {
					t.Fatalf("batch %d: nothing repaired; the test needs a dirty batch", i+1)
				}
			}
			live := sys.State()
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverFromDir(dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer rec.Close()
			if r := rec.Recovery(); r.Replayed != 6 {
				t.Fatalf("replayed %d records, want 6", r.Replayed)
			}
			if !bitwiseEqual(rec.State(), live) {
				t.Fatal("recovered state differs from the live one")
			}
		})
	}
}
