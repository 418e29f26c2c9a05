// Package fault provides a deterministic disk-fault injector for the
// durability suites. Disk models the storage failure modes the durability
// layer must survive: the process dying mid-write at an arbitrary byte offset
// (kill-after-N-bytes, which subsumes the short write a crash tears), silent
// bit rot on the write path, and the disk filling up. Every fault fires at an
// exact cumulative byte offset chosen by the test, no probabilities, so a
// crashpoint sweep can step a kill point through every interesting offset of
// a write-ahead log and assert the recovery outcome at each one.
//
// Disk implements wal.FS over a real directory: bytes that "survive" the
// fault land in real files, so a test recovers with the ordinary OS
// filesystem afterwards, exactly like a process restart after a crash.
package fault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"jetstream/internal/wal"
)

// ErrDiskKilled is returned by every operation after the kill offset is
// reached: the modeled process is dead, nothing more reaches the disk.
var ErrDiskKilled = errors.New("fault: disk killed (simulated crash)")

// ErrNoSpace is returned by writes that cross the configured capacity.
// Unlike a kill, the process lives on: subsequent writes keep failing, but
// syncs, reads, and closes still work.
var ErrNoSpace = errors.New("fault: no space left on device")

// DiskConfig places deterministic faults at exact cumulative write offsets.
// Offsets count every byte written through the Disk across all files, in
// order. A negative offset disables that fault.
type DiskConfig struct {
	// KillAtByte simulates the process dying mid-write: the write that
	// would carry cumulative offset KillAtByte is truncated just before it
	// (a torn/short write lands on disk) and every later operation fails
	// with ErrDiskKilled.
	KillAtByte int64
	// FlipBitAt silently XORs FlipMask into the byte written at this
	// cumulative offset — bit rot injected on the write path.
	FlipBitAt int64
	// FlipMask is the XOR mask for FlipBitAt (0 means 0x40).
	FlipMask byte
	// FullAtByte simulates the disk filling: the write crossing this offset
	// lands partially (up to the boundary) and fails with ErrNoSpace, as do
	// all later writes.
	FullAtByte int64
}

// Disk is a deterministic faulty filesystem rooted at a real directory.
// It is safe for use from one goroutine, matching the wal.Log contract.
type Disk struct {
	root string
	cfg  DiskConfig

	mu      sync.Mutex
	written int64 // cumulative bytes accepted across all files
	killed  bool
	full    bool
}

// NewDisk returns a Disk writing through to dir.
func NewDisk(dir string, cfg DiskConfig) *Disk {
	if cfg.FlipMask == 0 {
		cfg.FlipMask = 0x40
	}
	return &Disk{root: dir, cfg: cfg}
}

// Root returns the real directory the disk writes through to, which is where
// recovery tooling (using the real filesystem) should look after a crash.
func (d *Disk) Root() string { return d.root }

// Written returns the cumulative bytes accepted so far.
func (d *Disk) Written() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.written
}

// Killed reports whether the kill offset has been reached — the harness's
// signal that the modeled process is dead and driving must stop.
func (d *Disk) Killed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killed
}

func (d *Disk) alive() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.killed {
		return ErrDiskKilled
	}
	return nil
}

// admit decides the fate of an n-byte write: how many bytes land, and which
// error (if any) the write returns. It also applies bit flips to the
// admitted range via flip.
func (d *Disk) admit(n int) (allow int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.killed {
		return 0, ErrDiskKilled
	}
	allow = n
	if d.cfg.KillAtByte >= 0 && d.written+int64(n) > d.cfg.KillAtByte {
		allow = int(d.cfg.KillAtByte - d.written)
		d.killed = true
		err = ErrDiskKilled
	}
	if d.cfg.FullAtByte >= 0 && d.written+int64(allow) > d.cfg.FullAtByte {
		if cut := int(d.cfg.FullAtByte - d.written); cut < allow {
			allow = cut
		}
		d.full = true
	}
	if d.full && err == nil {
		err = ErrNoSpace
	}
	if allow < 0 {
		allow = 0
	}
	return allow, err
}

// flip applies the configured bit flip to p, whose first byte sits at
// cumulative offset base.
func (d *Disk) flip(p []byte, base int64) []byte {
	at := d.cfg.FlipBitAt
	if at < 0 || at < base || at >= base+int64(len(p)) {
		return p
	}
	q := append([]byte(nil), p...)
	q[at-base] ^= d.cfg.FlipMask
	return q
}

func (d *Disk) join(path string) string { return filepath.Join(d.root, filepath.Base(path)) }

// file wraps one real file with the disk's fault state.
type file struct {
	d *Disk
	f *os.File
}

func (w *file) Write(p []byte) (int, error) {
	allow, ferr := w.d.admit(len(p))
	w.d.mu.Lock()
	base := w.d.written
	w.d.mu.Unlock()
	part := w.d.flip(p[:allow], base)
	n, werr := w.f.Write(part)
	w.d.mu.Lock()
	w.d.written += int64(n)
	w.d.mu.Unlock()
	if werr != nil {
		return n, fmt.Errorf("fault: disk write: %w", werr)
	}
	if ferr != nil {
		return n, ferr
	}
	return n, nil
}

func (w *file) Sync() error {
	if err := w.d.alive(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fault: disk sync: %w", err)
	}
	return nil
}

func (w *file) Close() error {
	// Closing always releases the real handle; a dead disk still reports
	// the kill so callers cannot mistake the tail for durable.
	err := w.f.Close()
	if kerr := w.d.alive(); kerr != nil {
		return kerr
	}
	if err != nil {
		return fmt.Errorf("fault: disk close: %w", err)
	}
	return nil
}

// MkdirAll implements wal.FS.
func (d *Disk) MkdirAll(dir string) error {
	if err := d.alive(); err != nil {
		return err
	}
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return fmt.Errorf("fault: mkdir: %w", err)
	}
	return nil
}

// OpenAppend implements wal.FS.
func (d *Disk) OpenAppend(path string) (wal.File, error) {
	if err := d.alive(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(d.join(path), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fault: open append: %w", err)
	}
	return &file{d: d, f: f}, nil
}

// Create implements wal.FS.
func (d *Disk) Create(path string) (wal.File, error) {
	if err := d.alive(); err != nil {
		return nil, err
	}
	f, err := os.Create(d.join(path))
	if err != nil {
		return nil, fmt.Errorf("fault: create: %w", err)
	}
	return &file{d: d, f: f}, nil
}

// ReadFile implements wal.FS.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	if err := d.alive(); err != nil {
		return nil, err
	}
	return os.ReadFile(d.join(path))
}

// Rename implements wal.FS.
func (d *Disk) Rename(oldpath, newpath string) error {
	if err := d.alive(); err != nil {
		return err
	}
	if err := os.Rename(d.join(oldpath), d.join(newpath)); err != nil {
		return fmt.Errorf("fault: rename: %w", err)
	}
	return nil
}

// Remove implements wal.FS.
func (d *Disk) Remove(path string) error {
	if err := d.alive(); err != nil {
		return err
	}
	if err := os.Remove(d.join(path)); err != nil {
		return fmt.Errorf("fault: remove: %w", err)
	}
	return nil
}

// Truncate implements wal.FS.
func (d *Disk) Truncate(path string, size int64) error {
	if err := d.alive(); err != nil {
		return err
	}
	if err := os.Truncate(d.join(path), size); err != nil {
		return fmt.Errorf("fault: truncate: %w", err)
	}
	return nil
}

// SyncDir implements wal.FS.
func (d *Disk) SyncDir(dir string) error {
	if err := d.alive(); err != nil {
		return err
	}
	h, err := os.Open(d.root)
	if err != nil {
		return fmt.Errorf("fault: sync dir: %w", err)
	}
	serr := h.Sync()
	cerr := h.Close()
	if serr != nil {
		return fmt.Errorf("fault: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("fault: sync dir close: %w", cerr)
	}
	return nil
}
