// Package wal implements the durable write-ahead delta log behind the
// module's crash-consistency story. Each applied batch's edge delta is
// journaled as one length-prefixed, CRC64-framed record before the engine
// mutates any state, so the durable history is always at or ahead of the
// in-memory state; a checkpoint then becomes incremental — a full snapshot
// plus a log position — and recovery replays the log tail on top of the
// restored snapshot.
//
// Failure semantics mirror the checkpoint layer's: a torn tail (the bytes a
// crash cut mid-append) is detected by checksum, truncated, and the durable
// prefix before it recovered cleanly; damage in the middle of the log —
// which means committed history is gone — refuses with ErrCorrupt rather
// than silently diverging. The sync policy selects how much recent history a
// crash may cost: per-batch fsync (nothing), interval fsync (up to the
// interval), or none (whatever the OS had not flushed).
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"jetstream/internal/graph"
	"jetstream/internal/obs"
)

// LogName is the log's filename inside its directory.
const LogName = "wal.log"

// SyncPolicy selects when Append calls fsync.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs after every appended record: a crash loses
	// nothing that Append acknowledged. The safest and slowest policy.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval fsyncs after every Options.Interval appended records: a
	// crash loses at most the unsynced interval.
	SyncInterval
	// SyncNone never fsyncs from Append; durability rides on the OS page
	// cache until Sync or Close is called explicitly.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves the command-line spellings of the policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncEveryBatch, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want batch, interval, or none)", s)
	}
}

// Options configures a Log.
type Options struct {
	// Sync selects the fsync cadence (default SyncEveryBatch).
	Sync SyncPolicy
	// Interval is the record count between fsyncs under SyncInterval;
	// values < 1 behave as 1.
	Interval int
	// FS overrides the filesystem (nil = the real one). Tests interpose
	// fault.Disk here to model crashes, short writes, bit rot, and ENOSPC.
	FS FS
}

// ErrSequence is wrapped by Append when the caller's sequence number does
// not extend the log contiguously — a sign two writers share a directory or
// the caller skipped recovery.
var ErrSequence = errors.New("wal: non-contiguous sequence")

// Log is an append-only write-ahead delta log bound to one directory. It is
// not safe for concurrent use; the owning System serializes access the same
// way it serializes ApplyBatch.
type Log struct {
	dir     string
	opts    Options
	fs      FS
	f       File
	size    int64
	lastSeq uint64 // sequence floor: the next Append must carry lastSeq+1
	started bool   // false until the floor is pinned by a record or SetFloor
	pending int    // records appended since the last fsync

	// broken latches the first append-path write failure: the file tail may
	// hold a torn record, and appending anything after it would turn a clean
	// torn tail into unrecoverable mid-log corruption. Every subsequent
	// Append or Sync fails with the original error until the log is
	// reopened (Open truncates the torn tail away).
	broken error

	// tornRepairs counts torn-tail truncations Open performed before
	// Instrument could register the counter.
	tornRepairs uint64

	// buf is the reusable record-encoding scratch.
	buf []byte

	// Observability; nil-checked so an uninstrumented log costs nothing.
	syncLat     *obs.Histogram
	appends     *obs.Counter
	appendBytes *obs.Counter
	syncs       *obs.Counter
	compactions *obs.Counter
	truncations *obs.Counter
}

// Open opens (creating if needed) the log in dir, scans it, repairs a torn
// tail by truncating the file to its intact prefix, and positions the log
// for appending. Mid-log corruption fails with an error wrapping ErrCorrupt.
// The returned log's LastSeq tells the caller where the durable history
// ends.
func Open(dir string, opts Options) (*Log, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if opts.Interval < 1 {
		opts.Interval = 1
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts, fs: fs}
	path := l.path()
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if len(data) > 0 {
		st, err := Scan(data)
		if err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", path, err)
		}
		if st.Truncated {
			if err := fs.Truncate(path, st.ValidSize); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			l.tornRepairs++
		}
		l.size = st.ValidSize
		if st.Replayed > 0 {
			l.lastSeq = st.LastSeq
			l.started = true
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l.f = f
	return l, nil
}

// SetFloor pins the sequence floor of an empty log: the next Append must
// carry seq+1. A System attaching a fresh log after restoring a snapshot at
// batch seq uses it so a skipped or doubled batch number is caught at append
// time rather than at the next recovery.
func (l *Log) SetFloor(seq uint64) {
	if !l.started {
		l.lastSeq = seq
		l.started = true
	}
}

func (l *Log) path() string { return filepath.Join(l.dir, LogName) }

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the sequence number of the last record in the log (or the
// floor set by SetFloor); 0 when the log is empty and unpinned.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Size returns the log's current byte length.
func (l *Log) Size() int64 { return l.size }

// Instrument registers the log's series on reg: the fsync latency histogram
// and the append/sync/compaction/truncation counters.
func (l *Log) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.syncLat = reg.Histogram("jetstream_wal_sync_latency_ns")
	l.appends = reg.Counter("jetstream_wal_appends_total")
	l.appendBytes = reg.Counter("jetstream_wal_append_bytes_total")
	l.syncs = reg.Counter("jetstream_wal_syncs_total")
	l.compactions = reg.Counter("jetstream_wal_compactions_total")
	l.truncations = reg.Counter("jetstream_wal_truncations_total")
	if l.tornRepairs > 0 {
		l.truncations.Add(l.tornRepairs)
		l.tornRepairs = 0
	}
}

// Append journals one batch under the given sequence number, which must
// extend the log contiguously (lastSeq+1, or anything for an empty log —
// the first record after a snapshot carries snapshotSeq+1). The write and
// any policy-triggered fsync complete before Append returns; on error
// nothing is considered durable and the caller must treat the batch as
// unjournaled.
func (l *Log) Append(seq uint64, b graph.Batch) error {
	if l.f == nil {
		return fmt.Errorf("wal: append to closed log")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log broken by earlier write failure: %w", l.broken)
	}
	if l.started && seq != l.lastSeq+1 {
		return fmt.Errorf("%w: append sequence %d after %d", ErrSequence, seq, l.lastSeq)
	}
	l.buf = appendRecord(l.buf[:0], seq, b)
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		l.broken = err
		return fmt.Errorf("wal: append seq %d: %w", seq, err)
	}
	l.lastSeq = seq
	l.started = true
	l.pending++
	if l.appends != nil {
		l.appends.Inc()
		l.appendBytes.Add(uint64(len(l.buf)))
	}
	switch l.opts.Sync {
	case SyncEveryBatch:
		return l.Sync()
	case SyncInterval:
		if l.pending >= l.opts.Interval {
			return l.Sync()
		}
	}
	return nil
}

// Sync flushes appended records to stable storage — the cheap per-batch
// durability point: O(delta since the last sync), never O(V+E).
func (l *Log) Sync() error {
	if l.f == nil {
		return fmt.Errorf("wal: sync on closed log")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log broken by earlier write failure: %w", l.broken)
	}
	if l.pending == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.pending = 0
	if l.syncs != nil {
		l.syncs.Inc()
		l.syncLat.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	return nil
}

// CompactTo truncates the log prefix covered by a snapshot at sequence seq:
// records with Seq <= seq are dropped, the survivors (none when seq >=
// LastSeq, and then the log is not read) are rewritten to a temp file,
// fsynced, and renamed over the log — atomic, so a crash at any point
// leaves either the old complete log or the new one. Call it after the
// snapshot itself is durably in place: the snapshot-then-compact order means
// a crash between the two steps only leaves already-covered records, which
// replay skips.
func (l *Log) CompactTo(seq uint64) error {
	if l.f == nil {
		return fmt.Errorf("wal: compact on closed log")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log broken by earlier write failure: %w", l.broken)
	}
	// The append handle is flushed and released first so the rewrite sees
	// every record and the rename does not race an open writer.
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.f = nil
		return fmt.Errorf("wal: compact: close append handle: %w", err)
	}
	l.f = nil

	// A snapshot at or past the last record covers the whole log — always
	// the case for System.Compact — so there are no survivors to look for
	// and the log is replaced by an empty one without being read.
	var kept []byte
	if seq < l.lastSeq {
		data, err := l.fs.ReadFile(l.path())
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: compact: read log: %w", err)
		}
		if _, err := Replay(data, seq, func(r Record) error {
			kept = append(kept, data[r.Off:r.Off+int64(r.Size)]...)
			return nil
		}); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	if err := WriteFileAtomic(l.fs, l.path(), func(w io.Writer) error {
		if len(kept) == 0 {
			return nil
		}
		_, werr := w.Write(kept)
		return werr
	}); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The sequence floor is unchanged: compaction only drops the prefix a
	// snapshot already covers, so the next append is still lastSeq+1.
	l.size = int64(len(kept))
	f, err := l.fs.OpenAppend(l.path())
	if err != nil {
		return fmt.Errorf("wal: compact: reopen: %w", err)
	}
	l.f = f
	if l.compactions != nil {
		l.compactions.Inc()
	}
	return nil
}

// Close flushes pending records and releases the log. A Close error means
// the tail's durability is unknown; recovery will still see every record
// that reached stable storage.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	serr := l.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// AppendedSize returns the exact number of log bytes one batch occupies —
// used by tests and capacity planning.
func AppendedSize(b graph.Batch) int { return recordSize(b) }
