package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"jetstream/internal/graph"
)

// testBatch returns a small deterministic batch keyed by i.
func testBatch(i int) graph.Batch {
	return graph.Batch{
		Inserts: []graph.Edge{
			{Src: uint32(i), Dst: uint32(i + 1), Weight: float64(i) + 0.5},
			{Src: uint32(i + 2), Dst: uint32(i), Weight: 1},
		},
		Deletes: []graph.Edge{{Src: uint32(i + 1), Dst: uint32(i + 3), Weight: 2}},
	}
}

func batchesEqual(a, b graph.Batch) bool {
	if len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
		return false
	}
	for i := range a.Inserts {
		if a.Inserts[i] != b.Inserts[i] {
			return false
		}
	}
	for i := range a.Deletes {
		if a.Deletes[i] != b.Deletes[i] {
			return false
		}
	}
	return true
}

func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := l.Append(uint64(i), testBatch(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 8)
	if got := l.LastSeq(); got != 8 {
		t.Fatalf("LastSeq = %d, want 8", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	st, err := Replay(data, 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 8 || st.Truncated || st.LastSeq != 8 {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !batchesEqual(r.Batch, testBatch(i+1)) {
			t.Fatalf("record %d: seq %d batch mismatch", i, r.Seq)
		}
	}

	// Replay after a snapshot position skips the covered prefix.
	st, err = Replay(data, 5, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 3 || st.Skipped != 5 {
		t.Fatalf("partial replay stats = %+v", st)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", l2.LastSeq())
	}
	if err := l2.Append(5, testBatch(5)); !errors.Is(err, ErrSequence) {
		t.Fatalf("gap append error = %v, want ErrSequence", err)
	}
	appendN(t, l2, 4, 4)
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for cut := 1; cut <= 24; cut += 7 {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 4)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, LogName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = l2.Close() }()
			if l2.LastSeq() != 3 {
				t.Fatalf("LastSeq after torn tail = %d, want 3", l2.LastSeq())
			}
			// The torn bytes are gone from disk: the repaired file replays clean.
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Replay(repaired, 0, nil)
			if err != nil || st.Truncated || st.Replayed != 3 {
				t.Fatalf("repaired replay: %+v, %v", st, err)
			}
			// Appending after the repair extends the intact prefix.
			appendN(t, l2, 4, 4)
		})
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a byte inside the first record: intact records follow, so this
	// is unrecoverable history loss, not a torn tail.
	data[20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(data, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
}

func TestReplayRejectsGapAndLateStart(t *testing.T) {
	var data []byte
	data = appendRecord(data, 1, testBatch(1))
	data = appendRecord(data, 3, testBatch(3)) // gap: 2 missing
	if _, err := Replay(data, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap error = %v, want ErrCorrupt", err)
	}

	late := appendRecord(nil, 7, testBatch(7))
	if _, err := Replay(late, 2, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("late-start error = %v, want ErrCorrupt", err)
	}
	// Scan has no start constraint: a compacted log beginning at 7 is fine.
	if st, err := Scan(late); err != nil || st.Replayed != 1 || st.LastSeq != 7 {
		t.Fatalf("Scan = %+v, %v", st, err)
	}
}

func TestSetFloorPinsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	l.SetFloor(5)
	if err := l.Append(7, testBatch(7)); !errors.Is(err, ErrSequence) {
		t.Fatalf("append past floor = %v, want ErrSequence", err)
	}
	if err := l.Append(6, testBatch(6)); err != nil {
		t.Fatal(err)
	}
}

func TestCompactTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	before := l.Size()
	if err := l.CompactTo(6); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("size after compact = %d, want < %d", l.Size(), before)
	}
	// The floor is unchanged: appends continue from 10.
	appendN(t, l, 11, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	st, err := Replay(data, 6, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 6 || st.Skipped != 0 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	for i, s := range seqs {
		if s != uint64(7+i) {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestCompactToAll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	if err := l.CompactTo(5); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size = %d, want 0", l.Size())
	}
	appendN(t, l, 6, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactCoveredLogReadsNothing: compacting to the last record — what
// System.Compact always asks for — replaces a 2,048-record log with an empty
// one without reading a byte of it, and the log goes on from the same floor.
func TestCompactCoveredLogReadsNothing(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{FS: OSFS{}}
	l, err := Open(dir, Options{Sync: SyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 2048)
	fs.read = 0
	if err := l.CompactTo(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if fs.read != 0 || l.Size() != 0 {
		t.Fatalf("compact of a covered log read %d bytes and left %d", fs.read, l.Size())
	}
	appendN(t, l, 2049, 2049)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := Replay(data, 2048, nil); err != nil || st.Replayed != 1 || st.LastSeq != 2049 {
		t.Fatalf("log after compact and one append: %+v, %v", st, err)
	}
}

// countingFS counts fsync calls to verify the sync policies, and the bytes
// read back through ReadFile.
type countingFS struct {
	FS
	syncs int
	read  int
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	data, err := c.FS.ReadFile(path)
	c.read += len(data)
	return data, err
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) OpenAppend(path string) (File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

func TestSyncPolicies(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		appends int
		want    int // fsyncs during the appends (before Close)
	}{
		{"batch", Options{Sync: SyncEveryBatch}, 6, 6},
		{"interval", Options{Sync: SyncInterval, Interval: 3}, 6, 2},
		{"none", Options{Sync: SyncNone}, 6, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := &countingFS{FS: OSFS{}}
			tc.opts.FS = fs
			l, err := Open(t.TempDir(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, tc.appends)
			if fs.syncs != tc.want {
				t.Fatalf("syncs during appends = %d, want %d", fs.syncs, tc.want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Close flushes whatever was pending, exactly once when needed.
			if tc.want == tc.appends && fs.syncs != tc.want {
				t.Fatalf("Close re-synced a clean log: %d", fs.syncs)
			}
		})
	}
}

// failFS fails every write after the first n bytes, modeling a write error
// that leaves a torn record in the file.
type failFS struct {
	FS
	budget int
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFS) OpenAppend(path string) (File, error) {
	inner, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &failFile{File: inner, fs: f}, nil
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.fs.budget <= 0 {
		return 0, errors.New("failfs: write refused")
	}
	if len(p) <= f.fs.budget {
		f.fs.budget -= len(p)
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.fs.budget])
	f.fs.budget = 0
	return n, errors.New("failfs: short write")
}

func TestBrokenLogLatchesAfterWriteFailure(t *testing.T) {
	dir := t.TempDir()
	full := recordSize(testBatch(1))
	fs := &failFS{FS: OSFS{}, budget: full + 10} // record 1 fits, record 2 tears
	l, err := Open(dir, Options{Sync: SyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, testBatch(2)); err == nil {
		t.Fatal("torn append did not error")
	}
	// Everything after the torn write must refuse: another append here would
	// bury the tear mid-log and make recovery impossible.
	if err := l.Append(3, testBatch(3)); err == nil {
		t.Fatal("append on broken log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on broken log succeeded")
	}
	if err := l.CompactTo(1); err == nil {
		t.Fatal("compact on broken log succeeded")
	}

	// Reopening repairs the torn tail and the log is usable again.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if l2.LastSeq() != 1 {
		t.Fatalf("LastSeq after repair = %d, want 1", l2.LastSeq())
	}
	appendN(t, l2, 2, 2)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	for _, content := range []string{"first", "second longer content"} {
		if err := WriteFileAtomic(nil, path, func(w io.Writer) error {
			_, err := w.Write([]byte(content))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
}

func TestClosedLogRefusesUse(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(1, testBatch(1)); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on closed log succeeded")
	}
}

func TestAppendedSizeMatchesBytesOnDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 1; i <= 5; i++ {
		want += int64(AppendedSize(testBatch(i)))
		if err := l.Append(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() != want {
		t.Fatalf("Size = %d, want %d", l.Size(), want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Fatalf("file size = %d, want %d", fi.Size(), want)
	}
}
