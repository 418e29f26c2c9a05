package jetstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"jetstream/internal/algo"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
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
// WAL — the signal driving periodic Compact calls.
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
// and converges once (replayFolded); every other System replays it one
// ApplyBatch at a time. Both land on the same state; a journaled record that
// does not apply to the graph it was journaled against refuses recovery with
// an error wrapping *BatchError (a folded replay's *FoldError names the
// record and unwraps to it). Recovery reports what it did.
func RecoverFromDir(dir string, opts ...Option) (*System, error) {
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
	fold := sys.foldsReplay()
	var tail []Batch
	st, err := wal.Replay(logData, sys.batches, func(r wal.Record) error {
		if fold {
			tail = append(tail, r.Batch)
			return nil
		}
		if _, aerr := sys.applyBatch(r.Batch, false); aerr != nil {
			return fmt.Errorf("replay batch %d: %w", r.Seq, aerr)
		}
		return nil
	})
	if err == nil && len(tail) > 0 {
		err = sys.replayFolded(tail)
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
		Replayed: st.Replayed, Folded: len(tail) > 0,
		Truncated: st.Truncated, ValidSize: st.ValidSize,
	}
	return sys, nil
}

// RecoveryReport says what RecoverFromDir did to bring a System back.
type RecoveryReport struct {
	// Replayed counts the log records applied past the snapshot.
	Replayed int
	// Folded reports that the records were folded into one net delta and
	// converged once, rather than replayed one batch at a time.
	Folded bool
	// Truncated reports a torn record at the end of the log, which recovery
	// cut away; ValidSize is the log's length in bytes up to it.
	Truncated bool
	ValidSize int64
}

// Recovery returns what RecoverFromDir did to build this System; the zero
// report for a System built any other way.
func (s *System) Recovery() RecoveryReport { return s.recovery }

// foldsReplay is the one predicate that picks the replay path. A selective
// kernel without a cycle model converges to the unique fixpoint of the final
// graph whatever the batch boundaries were, so its log tail folds into one
// net delta and one compute. An accumulative kernel's state and a cycle
// model's counters depend on the boundaries, so they replay record by record.
func (s *System) foldsReplay() bool {
	return s.alg.Class() == algo.Selective && !s.cfg.Engine.Timing
}

// replayFolded replays a log tail as one batch. The window advances record by
// record (Expire, then Record) and each expired key joins its record as a
// delete; graph.Fold turns the records into their net delta against the
// current graph, refusing a record that does not apply with a *FoldError; one
// js.ApplyBatch converges on it. Batches() and jetstream_batches_total
// advance by the record count; everything else reports the tail as one
// batch: one counter delta and batch-latency observation, one
// BatchStart/BatchEnd trace pair (A: the first and the last record, B: the
// net delta's size and the events processed), and one watchdog check if the
// tail crossed a check index.
func (s *System) replayFolded(tail []Batch) error {
	first, last := s.batches+1, s.batches+uint64(len(tail))
	var expired uint64
	if s.win != nil {
		for i, b := range tail {
			epoch := first + uint64(i)
			keys := s.expire(epoch, b.Deletes)
			s.win.Record(epoch, b)
			if len(keys) == 0 {
				continue
			}
			dels := make([]Edge, len(keys), len(keys)+len(b.Deletes))
			for j, k := range keys {
				dels[j] = Edge{Src: k.Src, Dst: k.Dst}
			}
			tail[i].Deletes = append(dels, b.Deletes...)
			expired += uint64(len(keys))
		}
	}
	net, err := graph.Fold(s.js.Graph(), first, tail)
	if err != nil {
		return err
	}
	clear(tail) // the records end here: the apply's memory peak need not carry them
	s.trace(obs.TraceEvent{Kind: obs.KindBatchStart, A: first, B: uint64(net.Size())})
	if err := s.js.ApplyBatch(net); err != nil {
		return fmt.Errorf("jetstream: apply batch: %w", err)
	}
	s.js.Engine().ReleaseBuffers()
	if s.win != nil {
		s.expiredC.Add(expired)
	}
	s.batches = last
	if s.wd.Enabled() {
		if at := last - last%uint64(s.wd.Every); at >= first {
			s.js.WatchdogCheck(s.wd, at)
		}
	}
	res := s.delta()
	s.latency.Observe(uint64(res.Duration.Nanoseconds()))
	s.batchesC.Add(last - first + 1)
	s.trace(obs.TraceEvent{Kind: obs.KindBatchEnd, A: last,
		B: res.Stats.EventsProcessed, F: res.Duration.Seconds()})
	return nil
}
