package jetstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"jetstream/internal/algo"
	"jetstream/internal/wal"
)

// Durability. With WithWAL configured a System pairs a baseline checkpoint
// (SnapshotName, written atomically on the first batch) with an append-only
// write-ahead delta log (wal.LogName): every applied batch's sanitized edge
// delta is journaled — and, per the sync policy, fsynced — before the engine
// mutates any state. A checkpoint is thereby incremental: its cost per batch
// is O(delta), never O(V+E); the O(V+E) snapshot is paid only at attach time
// and at explicit Compact calls. After a crash, RecoverFromDir restores the
// snapshot and replays the log tail, yielding exactly the durable prefix of
// the stream.
//
// Failure semantics: a torn log tail (the bytes a crash cut mid-append) is
// truncated and recovery succeeds at the last durable batch; damage in the
// middle of the log or in the snapshot refuses with an error wrapping
// ErrCorruptWAL or ErrCorruptCheckpoint respectively — recovery never panics
// and never silently diverges.

// SnapshotName is the baseline checkpoint's filename inside a WAL directory.
const SnapshotName = "snapshot.ckpt"

// WALOptions configures the write-ahead log attached by WithWALOptions: the
// sync policy, the interval for WALSyncInterval, and a filesystem override
// for fault injection.
type WALOptions = wal.Options

// WALSyncPolicy selects when the log fsyncs (see the policy constants).
type WALSyncPolicy = wal.SyncPolicy

// Sync policies for WALOptions.Sync.
const (
	// WALSyncEveryBatch fsyncs after every journaled batch: a crash loses
	// nothing ApplyBatch acknowledged (the default).
	WALSyncEveryBatch = wal.SyncEveryBatch
	// WALSyncInterval fsyncs every Interval batches: a crash loses at most
	// the unsynced interval.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNone never fsyncs from ApplyBatch; durability rides on the OS
	// page cache until Sync or Close.
	WALSyncNone = wal.SyncNone
)

// ParseWALSyncPolicy resolves the command-line spellings "batch",
// "interval", and "none".
var ParseWALSyncPolicy = wal.ParseSyncPolicy

// ErrCorruptWAL is wrapped by recovery errors caused by damage in the middle
// of the write-ahead log — committed history that cannot be reconstructed.
// A torn tail is not corruption: recovery truncates it and succeeds at the
// last durable batch.
var ErrCorruptWAL = wal.ErrCorrupt

// withWALOff clears any WAL request so Restore's internal New does not try
// to open the log RecoverFromDir manages itself.
func withWALOff() Option {
	return func(s *settings) { s.WALDir, s.WALSync, s.WALSyncInterval, s.walFS = "", "", 0, nil }
}

// walFS resolves the effective filesystem for the System's WAL directory.
func (s *System) walFS() wal.FS {
	if s.walOpts.FS != nil {
		return s.walOpts.FS
	}
	return wal.OSFS{}
}

// writeSnapshot atomically replaces the WAL directory's baseline checkpoint
// with the System's current state.
func (s *System) writeSnapshot() error {
	return wal.WriteFileAtomic(s.walFS(), filepath.Join(s.walDir, SnapshotName), func(w io.Writer) error {
		return s.checkpointLocked(w)
	})
}

// journal durably records one sanitized batch before it is applied, writing
// the baseline snapshot first if this is the log's first record.
func (s *System) journal(clean Batch) error {
	if !s.snapDone {
		if err := s.writeSnapshot(); err != nil {
			return fmt.Errorf("jetstream: wal: baseline snapshot: %w", err)
		}
		s.snapDone = true
	}
	if err := s.wal.Append(s.batches+1, clean); err != nil {
		return fmt.Errorf("jetstream: wal: %w", err)
	}
	return nil
}

// Sync flushes the write-ahead log to stable storage — the explicit
// durability point under WALSyncInterval and WALSyncNone. Without a WAL it
// is a no-op.
func (s *System) Sync() error {
	if s.wal == nil {
		return nil
	}
	if err := s.acquire("Sync"); err != nil {
		return err
	}
	defer s.release()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("jetstream: %w", err)
	}
	return nil
}

// Compact rewrites the baseline snapshot at the current stream position and
// truncates the log prefix it covers, bounding recovery time and log growth.
// The snapshot lands durably (atomic temp-file, fsync, rename) before the
// log is touched, so a crash at any point leaves a recoverable pair. Compact
// requires WithWAL.
func (s *System) Compact() error {
	if s.wal == nil {
		return fmt.Errorf("jetstream: compact: no write-ahead log configured (use WithWAL)")
	}
	if !s.init {
		return fmt.Errorf("jetstream: compact: call RunInitial first")
	}
	if err := s.acquire("Compact"); err != nil {
		return err
	}
	defer s.release()
	if err := s.writeSnapshot(); err != nil {
		return fmt.Errorf("jetstream: compact: %w", err)
	}
	s.snapDone = true
	if err := s.wal.CompactTo(s.batches); err != nil {
		return fmt.Errorf("jetstream: %w", err)
	}
	return nil
}

// Close flushes and releases the write-ahead log. The System itself remains
// usable, but batches applied after Close are no longer journaled — recovery
// from the directory then replays only up to the close point. Close is
// idempotent; without a WAL it is a no-op.
func (s *System) Close() error {
	if s.wal == nil {
		return nil
	}
	if err := s.acquire("Close"); err != nil {
		return err
	}
	defer s.release()
	err := s.wal.Close()
	s.wal = nil
	if err != nil {
		return fmt.Errorf("jetstream: %w", err)
	}
	return nil
}

// WALSize returns the write-ahead log's current byte length, or 0 without a
// WAL. The System never compacts on its own: the log grows with every
// journaled batch until the caller runs Compact, which empties it.
func (s *System) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Size()
}

// RecoverFromDir rebuilds a System from a WAL directory after a crash or
// clean shutdown: the baseline snapshot is restored, every intact journaled
// batch past the snapshot's position is replayed, and the log is reattached
// for further journaling. A torn record at the end of the log — the shape a
// crash mid-append leaves — is truncated away and recovery succeeds at the
// last durable batch; an unreadable record with intact history after it
// fails with an error wrapping ErrCorruptWAL, and snapshot damage with one
// wrapping ErrCorruptCheckpoint. Options are applied on top of the recorded
// configuration, exactly as in Restore; WAL sync options for the resumed log
// may be passed via WithWALOptions(dir, ...).
//
// A selective kernel without a cycle model folds the tail into one net delta
// and converges once: incrementally, or — when the delta rewrites much of
// the graph — by merging it into a fresh graph and evaluating that from
// scratch. Every other System replays the tail one record at a time, as
// ApplyBatch applied it. All paths land on the same state; a journaled record
// that does not apply to the graph it was journaled against refuses recovery
// with an error wrapping *BatchError (a folded replay's *FoldError names the
// record and unwraps to it). Recovery reports which path ran.
func RecoverFromDir(dir string, opts ...Option) (*System, error) {
	return recoverDir(dir, ReplayNone, opts)
}

// recoverDir is RecoverFromDir with the replay path pinned, so tests and
// benchmarks can compare the paths on one directory: ReplayPerRecord replays
// record by record, ReplayFolded and ReplayRebuilt override rebuildsTail's
// choice for a tail that folds, and ReplayNone leaves both choices to the
// System.
func recoverDir(dir string, force ReplayPath, opts []Option) (*System, error) {
	var scratch settings
	for _, o := range opts {
		o(&scratch)
	}
	if scratch.WALDir != "" && scratch.WALDir != dir {
		return nil, fmt.Errorf("jetstream: recover %s: WithWAL(%s) disagrees with the recovery directory", dir, scratch.WALDir)
	}
	sync, err := wal.ParseSyncPolicy(scratch.WALSync)
	if err != nil {
		return nil, fmt.Errorf("jetstream: recover %s: %w: %w", dir, ErrConfigConflict, err)
	}
	walOpts := scratch.walOptions(sync)
	fs := walOpts.FS
	if fs == nil {
		fs = wal.OSFS{}
	}

	snap, err := fs.ReadFile(filepath.Join(dir, SnapshotName))
	if err != nil {
		return nil, fmt.Errorf("jetstream: recover %s: read snapshot: %w", dir, err)
	}
	all := append(append([]Option(nil), opts...), withWALOff())
	sys, err := Restore(bytes.NewReader(snap), all...)
	if err != nil {
		return nil, fmt.Errorf("jetstream: recover %s: %w", dir, err)
	}

	logData, err := fs.ReadFile(filepath.Join(dir, wal.LogName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("jetstream: recover %s: read log: %w", dir, err)
	}
	fold := sys.foldsReplay() && force != ReplayPerRecord
	var tail []Batch
	st, err := wal.Replay(logData, sys.batches, func(r wal.Record) error {
		if fold {
			tail = append(tail, r.Batch)
			return nil
		}
		// A record was journaled clean (Repair journals the sanitized batch),
		// so an issue means the log does not match the graph: it is refused
		// whatever the ingest policy, as the fold refuses it.
		clean, issues := sys.js.Graph().SanitizeBatch(r.Batch)
		if len(issues) > 0 {
			return fmt.Errorf("replay batch %d: %w", r.Seq, &BatchError{Issues: issues})
		}
		if _, _, err := sys.commit([]Batch{clean}, ReplayPerRecord, nil); err != nil {
			return fmt.Errorf("replay batch %d: %w", r.Seq, err)
		}
		return nil
	})
	path := ReplayNone
	if st.Replayed > 0 {
		path = ReplayPerRecord
	}
	if err == nil && len(tail) > 0 {
		_, path, err = sys.commit(tail, force, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("jetstream: recover %s: %w", dir, err)
	}

	l, err := wal.Open(dir, walOpts)
	if err != nil {
		return nil, fmt.Errorf("jetstream: recover %s: %w", dir, err)
	}
	l.SetFloor(sys.batches)
	sys.wal, sys.walDir, sys.walOpts, sys.snapDone = l, dir, walOpts, true
	l.Instrument(sys.reg)
	if st.Replayed > 0 {
		sys.reg.Counter("jetstream_wal_replayed_total").Add(uint64(st.Replayed))
	}
	sys.recovery = RecoveryReport{
		Replayed: st.Replayed, Replay: path,
		Truncated: st.Truncated, ValidSize: st.ValidSize,
	}
	return sys, nil
}

// RecoveryReport says what RecoverFromDir did to bring a System back.
type RecoveryReport struct {
	// Replayed counts the log records applied past the snapshot.
	Replayed int
	// Replay names the path that brought them in.
	Replay ReplayPath
	// Truncated reports a torn record at the end of the log, which recovery
	// cut away; ValidSize is the log's length in bytes up to it.
	Truncated bool
	ValidSize int64
}

// ReplayPath names how RecoverFromDir brought the log tail in.
type ReplayPath uint8

const (
	// ReplayNone: no record lay past the snapshot.
	ReplayNone ReplayPath = iota
	// ReplayPerRecord: each record was applied as its own batch — an
	// accumulative kernel, or a System with the cycle model.
	ReplayPerRecord
	// ReplayFolded: the records were folded into one net delta, applied
	// incrementally and converged once.
	ReplayFolded
	// ReplayRebuilt: the net delta was large enough against the graph that
	// the final graph was built by one merge and evaluated from scratch.
	ReplayRebuilt
)

func (p ReplayPath) String() string {
	switch p {
	case ReplayNone:
		return "none"
	case ReplayPerRecord:
		return "per-record"
	case ReplayFolded:
		return "folded"
	case ReplayRebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("ReplayPath(%d)", int(p))
	}
}

// Recovery returns what RecoverFromDir did to build this System; the zero
// report for a System built any other way.
func (s *System) Recovery() RecoveryReport { return s.recovery }

// rebuildDiv places the crossover between the two ways to converge on a
// folded tail. Applying a net delta of d ops incrementally costs work that
// grows with d (the re-lay of the dense restored graph, deletion tagging and
// resets, compute from the touched vertices); merging it into a fresh graph
// and evaluating from scratch costs O(V + E) whatever d is. Rebuilding wins
// once d reaches about E / rebuildDiv. The value is 1 / the median
// break-even net/E of BenchmarkRecoveryCrossover's sweep over every selective
// kernel on the BenchmarkWALRecovery shapes, rounded: 0.137, 0.151 and 0.141
// in three sweeps on a 2-vCPU x86-64 box (their tables are in results/).
const rebuildDiv = 7

// rebuildsTail is the one predicate that picks between the folded paths: it
// reports whether a net delta of net ops against a graph of edges edges is
// past the crossover.
func rebuildsTail(net, edges int) bool { return net*rebuildDiv >= edges }

// foldsReplay is the one predicate that picks the replay path. A selective
// kernel without a cycle model converges to the unique fixpoint of the final
// graph whatever the batch boundaries were, so its log tail folds into one
// net delta and one compute. An accumulative kernel's state and a cycle
// model's counters depend on the boundaries, so they replay record by record.
func (s *System) foldsReplay() bool {
	return s.alg.Class() == algo.Selective && !s.cfg.Engine.Timing
}
