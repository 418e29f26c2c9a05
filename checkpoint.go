package jetstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"jetstream/internal/algo"
	"jetstream/internal/graph"
	"jetstream/internal/stats"
	"jetstream/internal/window"
)

// Checkpoint format: an 8-byte magic, a format version, the payload length,
// the payload, and a trailing CRC64 (ECMA) over the payload. The payload
// carries everything needed to resume the standing query exactly — algorithm
// identity and parameters, configuration, graph version, per-vertex state and
// dependency fields, cumulative counters and cycles, and the batch count that
// drives the watchdog cadence.
//
// Microarchitectural timing state (cache contents, DRAM row buffers) is
// deliberately not checkpointed: it affects only the cycle estimate of future
// batches, never results. Accumulated cycles resume via a base offset.
var (
	ckptMagic = [8]byte{'J', 'S', 'C', 'K', 'P', 'T', '0', '1'}

	// ErrCorruptCheckpoint is wrapped by every Restore error caused by a
	// damaged or truncated checkpoint (bad magic, short payload, checksum
	// mismatch, or inconsistent contents).
	ErrCorruptCheckpoint = errors.New("jetstream: corrupt checkpoint")

	// ErrTruncated additionally wraps the subset of corruption caused by
	// missing bytes at the end of the input: a short header, a payload the
	// reader ran out of, or a missing checksum — the shape a torn write or
	// interrupted download leaves behind. Callers that maintain their own
	// redundancy can match it to distinguish "fetch or replay more"
	// (errors.Is(err, ErrTruncated)) from in-place damage, which only
	// matches ErrCorruptCheckpoint and means the blob must be discarded.
	ErrTruncated = errors.New("jetstream: truncated checkpoint")
)

// truncErr builds an error matching both ErrCorruptCheckpoint and
// ErrTruncated, for damage that presents as missing tail bytes.
func truncErr(format string, args ...any) error {
	return fmt.Errorf("%w: %w: "+format, append([]any{ErrCorruptCheckpoint, ErrTruncated}, args...)...)
}

// Version 5 is the one format this build writes and reads. Beyond the
// configuration and state it carries the write-ahead-log binding (a presence
// flag and the log position the snapshot covers), making a checkpoint the
// snapshot half of an incremental (snapshot, log tail) pair — see
// RecoverFromDir — and the sliding-window section (WithWindow): the TTL and
// every live edge's insertion epoch, so a restored system expires exactly the
// epochs an uninterrupted run would. The graph itself is always serialized
// canonically via Edges(), so the slack layout of an incrementally mutated
// CSR never leaks into the format: a restored system re-slacks lazily on its
// first delta batch.
const ckptVersion uint32 = 5

var ckptCRC = crc64.MakeTable(crc64.ECMA)

// counterFields fixes the serialization order of the counter set; both
// directions of the codec share it. Three slots held host-DMA fault counters
// that no longer exist; the layout keeps them — written as zero, discarded
// on read — so checkpoint bytes stay the same.
func counterFields(c *stats.Counters) []*uint64 {
	var retired [3]uint64
	return []*uint64{
		&c.EventsProcessed, &c.EventsGenerated, &c.EventsCoalesced,
		&c.VertexReads, &c.VertexWrites, &c.EdgeReads,
		&c.VerticesReset, &c.RequestsIssued, &c.DeletesDiscarded,
		&c.Rounds, &c.Phases,
		&c.BytesTransferred, &c.BytesUsed, &c.DRAMAccesses, &c.RowHits, &c.SpillBytes,
		&c.UpdatesDropped, &c.BatchesRepaired,
		&retired[0], &retired[1], &retired[2], &c.ColdStartFallbacks,
		&c.Cycles,
	}
}

type ckptWriter struct {
	buf bytes.Buffer
}

func (w *ckptWriter) u8(v uint8) { w.buf.WriteByte(v) }
func (w *ckptWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}
func (w *ckptWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}
func (w *ckptWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *ckptWriter) str(s string)  { w.u32(uint32(len(s))); w.buf.WriteString(s) }

type ckptReader struct {
	b []byte
}

func (r *ckptReader) need(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, fmt.Errorf("%w: payload truncated", ErrCorruptCheckpoint)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *ckptReader) u8() (uint8, error) {
	b, err := r.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *ckptReader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *ckptReader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *ckptReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *ckptReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(len(r.b)) {
		return "", fmt.Errorf("%w: string length %d exceeds payload", ErrCorruptCheckpoint, n)
	}
	b, _ := r.need(int(n))
	return string(b), nil
}

// Checkpoint serializes the System's full resumable state to w: a Restore of
// the stream continues exactly where this one stands, with identical
// per-vertex state and cumulative counters. Systems running kernels that
// cannot be reconstructed by name (custom Algorithm implementations,
// non-default constants) return an error.
func (s *System) Checkpoint(w io.Writer) error {
	if err := s.acquire("Checkpoint"); err != nil {
		return err
	}
	defer s.release()
	return s.checkpointLocked(w)
}

// checkpointLocked is Checkpoint without the single-writer guard, for callers
// already inside a guarded operation — writeSnapshot runs under ApplyBatch's
// journaling step or under Compact, both of which hold the guard.
func (s *System) checkpointLocked(w io.Writer) error {
	if !s.init {
		return fmt.Errorf("jetstream: cannot checkpoint before RunInitial")
	}
	name, root, eps, err := algo.Params(s.alg)
	if err != nil {
		return fmt.Errorf("jetstream: checkpoint: %w", err)
	}

	var p ckptWriter
	p.str(name)
	p.u32(root)
	p.f64(eps)

	// Configuration recorded by New (accelerator overrides excluded).
	p.u32(uint32(s.cfg.Opt))
	p.u32(uint32(s.cfg.Slices))
	boolByte := func(b bool) uint8 {
		if b {
			return 1
		}
		return 0
	}
	p.u8(boolByte(s.cfg.Engine.Timing))
	// Two retired flag bytes (a second cycle model, the full-rebuild graph
	// path): written as zero, discarded on read, so checkpoint bytes stay the
	// same.
	p.u8(0)
	p.u8(0)
	p.u32(uint32(s.cfg.Engine.Parallelism))
	p.u32(uint32(s.ingest))
	p.u64(uint64(s.wd.Every))
	p.f64(s.wd.Epsilon)
	p.u64(uint64(s.wd.Sample))

	// Stream position.
	p.u64(s.batches)
	p.u64(s.js.Cycles())

	// Counter snapshots: cumulative totals and the last delta() baseline.
	st := *s.st
	fields := counterFields(&st)
	p.u32(uint32(len(fields)))
	for _, f := range fields {
		p.u64(*f)
	}
	prev := s.prev
	for _, f := range counterFields(&prev) {
		p.u64(*f)
	}

	// Graph version, in the canonical edge encoding shared with the WAL.
	g := s.js.Graph()
	p.u64(uint64(g.NumVertices()))
	edges := g.Edges()
	p.u64(uint64(len(edges)))
	var eb [graph.EdgeSize]byte
	for _, e := range edges {
		graph.PutEdge(eb[:], e)
		p.buf.Write(eb[:])
	}

	// Per-vertex engine state and dependency fields.
	state := s.js.State()
	p.u64(uint64(len(state)))
	for _, v := range state {
		p.f64(v)
	}
	dep := s.js.Engine().Dep()
	p.u64(uint64(len(dep)))
	for _, d := range dep {
		p.u32(d)
	}

	// The WAL binding — whether this System journals to a write-ahead
	// log, and the log position (batch sequence number) the snapshot covers.
	// Recovery replays only records past this position.
	p.u8(boolByte(s.wal != nil))
	p.u64(s.batches)

	// The sliding window — TTL and the live (src, dst, insertion epoch)
	// entries in canonical (src,dst) order. The expiry frontier is derived
	// from the batch count, so it is not serialized.
	p.u8(boolByte(s.win != nil))
	if s.win != nil {
		p.u32(uint32(s.win.TTL()))
		entries := s.win.Entries()
		p.u64(uint64(len(entries)))
		for _, en := range entries {
			p.u32(uint32(en.Src))
			p.u32(uint32(en.Dst))
			p.u64(en.Epoch)
		}
	}

	payload := p.buf.Bytes()
	var hdr ckptWriter
	hdr.buf.Write(ckptMagic[:])
	hdr.u32(ckptVersion)
	hdr.u64(uint64(len(payload)))
	if _, err := w.Write(hdr.buf.Bytes()); err != nil {
		return fmt.Errorf("jetstream: checkpoint: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("jetstream: checkpoint: %w", err)
	}
	var tail ckptWriter
	tail.u64(crc64.Checksum(payload, ckptCRC))
	if _, err := w.Write(tail.buf.Bytes()); err != nil {
		return fmt.Errorf("jetstream: checkpoint: %w", err)
	}
	return nil
}

// Restore rebuilds a System from a checkpoint written by Checkpoint and
// resumes the stream exactly: the next ApplyBatch continues from the stored
// graph version with bit-identical per-vertex state. Damaged input is
// rejected with an error wrapping ErrCorruptCheckpoint and never yields a
// partially restored System. Options in opts are applied on top of the
// recorded configuration (e.g. WithObserver, which is not serialized);
// overriding the optimization level of a checkpoint that recorded dependency
// tracking is rejected.
func Restore(r io.Reader, opts ...Option) (*System, error) {
	hdr := make([]byte, len(ckptMagic)+4+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, truncErr("short header: %v", err)
	}
	if !bytes.Equal(hdr[:len(ckptMagic)], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	if version := binary.LittleEndian.Uint32(hdr[len(ckptMagic):]); version != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d (this build reads version %d only)",
			ErrCorruptCheckpoint, version, ckptVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[len(ckptMagic)+4:])
	const maxPayload = 1 << 40
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptCheckpoint, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, truncErr("short payload: %v", err)
	}
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, truncErr("missing checksum: %v", err)
	}
	if got, want := crc64.Checksum(payload, ckptCRC), binary.LittleEndian.Uint64(tail[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptCheckpoint)
	}

	p := &ckptReader{b: payload}
	name, err := p.str()
	if err != nil {
		return nil, err
	}
	root, err := p.u32()
	if err != nil {
		return nil, err
	}
	eps, err := p.f64()
	if err != nil {
		return nil, err
	}
	alg, err := algo.New(name, root, eps)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}

	opt, err := p.u32()
	if err != nil {
		return nil, err
	}
	slices, err := p.u32()
	if err != nil {
		return nil, err
	}
	timing, err := p.u8()
	if err != nil {
		return nil, err
	}
	if _, err := p.need(2); err != nil { // the two retired flag bytes
		return nil, err
	}
	parallel, err := p.u32()
	if err != nil {
		return nil, err
	}
	ingest, err := p.u32()
	if err != nil {
		return nil, err
	}
	wdEvery, err := p.u64()
	if err != nil {
		return nil, err
	}
	wdEps, err := p.f64()
	if err != nil {
		return nil, err
	}
	wdSample, err := p.u64()
	if err != nil {
		return nil, err
	}

	batches, err := p.u64()
	if err != nil {
		return nil, err
	}
	cycles, err := p.u64()
	if err != nil {
		return nil, err
	}

	nc, err := p.u32()
	if err != nil {
		return nil, err
	}
	var st, prev stats.Counters
	if int(nc) != len(counterFields(&st)) {
		return nil, fmt.Errorf("%w: counter set size %d, want %d", ErrCorruptCheckpoint, nc, len(counterFields(&st)))
	}
	for _, f := range counterFields(&st) {
		if *f, err = p.u64(); err != nil {
			return nil, err
		}
	}
	for _, f := range counterFields(&prev) {
		if *f, err = p.u64(); err != nil {
			return nil, err
		}
	}

	nv, err := p.u64()
	if err != nil {
		return nil, err
	}
	ne, err := p.u64()
	if err != nil {
		return nil, err
	}
	// Both counts are bounded by the bytes actually present before anything
	// is allocated: ne edges of EdgeSize each, then nv per-vertex states of
	// 8 bytes each, must all fit in the remaining payload. An adversarial
	// count can therefore never provoke a huge allocation.
	if nv > math.MaxInt32 || ne > uint64(len(p.b))/graph.EdgeSize ||
		ne*graph.EdgeSize+nv*8 > uint64(len(p.b)) {
		return nil, fmt.Errorf("%w: implausible graph dimensions (%d vertices, %d edges, %d payload bytes left)", ErrCorruptCheckpoint, nv, ne, len(p.b))
	}
	edges := make([]graph.Edge, ne)
	for i := range edges {
		eb, err := p.need(graph.EdgeSize)
		if err != nil {
			return nil, err
		}
		edges[i] = graph.GetEdge(eb)
	}
	g, err := graph.Build(int(nv), edges)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}

	ns, err := p.u64()
	if err != nil {
		return nil, err
	}
	if ns != nv {
		return nil, fmt.Errorf("%w: state length %d for %d vertices", ErrCorruptCheckpoint, ns, nv)
	}
	state := make([]float64, ns)
	for i := range state {
		if state[i], err = p.f64(); err != nil {
			return nil, err
		}
		// NaN is no kernel's value, and a selective vertex holding it never
		// settles (NaN != NaN reads as a change). ±Inf is an identity.
		if math.IsNaN(state[i]) {
			return nil, fmt.Errorf("%w: vertex %d state is NaN", ErrCorruptCheckpoint, i)
		}
	}
	nd, err := p.u64()
	if err != nil {
		return nil, err
	}
	if nd != 0 && nd != nv {
		return nil, fmt.Errorf("%w: dependency length %d for %d vertices", ErrCorruptCheckpoint, nd, nv)
	}
	dep := make([]graph.VertexID, nd)
	for i := range dep {
		if dep[i], err = p.u32(); err != nil {
			return nil, err
		}
	}
	// The WAL binding. The recorded log position must agree with the recorded
	// batch count — they are written from the same field, so a mismatch can
	// only mean in-place damage that slipped past the CRC.
	hadWAL, err := p.u8()
	if err != nil {
		return nil, err
	}
	if hadWAL > 1 {
		return nil, fmt.Errorf("%w: WAL flag %d", ErrCorruptCheckpoint, hadWAL)
	}
	walSeq, err := p.u64()
	if err != nil {
		return nil, err
	}
	if walSeq != batches {
		return nil, fmt.Errorf("%w: log position %d disagrees with batch count %d", ErrCorruptCheckpoint, walSeq, batches)
	}
	// The sliding-window section. Entry counts are bounded by the bytes
	// actually present (16 bytes each) before anything is allocated.
	var winTTL uint32
	var winEntries []window.Entry
	hasWin, err := p.u8()
	if err != nil {
		return nil, err
	}
	if hasWin > 1 {
		return nil, fmt.Errorf("%w: window flag %d", ErrCorruptCheckpoint, hasWin)
	}
	if hasWin == 1 {
		if winTTL, err = p.u32(); err != nil {
			return nil, err
		}
		nw, err := p.u64()
		if err != nil {
			return nil, err
		}
		if nw*16 > uint64(len(p.b)) {
			return nil, fmt.Errorf("%w: %d window entries exceed %d payload bytes left", ErrCorruptCheckpoint, nw, len(p.b))
		}
		winEntries = make([]window.Entry, nw)
		for i := range winEntries {
			src, err := p.u32()
			if err != nil {
				return nil, err
			}
			dst, err := p.u32()
			if err != nil {
				return nil, err
			}
			ep, err := p.u64()
			if err != nil {
				return nil, err
			}
			winEntries[i] = window.Entry{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Epoch: ep}
		}
		if winTTL == 0 {
			return nil, fmt.Errorf("%w: window TTL 0", ErrCorruptCheckpoint)
		}
	}
	if len(p.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptCheckpoint, len(p.b))
	}

	rec := Config{
		Opt:             OptLevel(opt).String(),
		Slices:          int(slices),
		Timing:          timing != 0,
		Ingest:          IngestPolicy(ingest).String(),
		WatchdogEvery:   int(wdEvery),
		WatchdogEpsilon: wdEps,
		WatchdogSample:  int(wdSample),
	}
	// Old checkpoints record the configured parallelism even when timing or
	// slicing kept it inert; declaring it would now trip ErrConfigConflict, so
	// only replay it when it could have engaged and restore the recorded value
	// directly otherwise.
	replayParallel := timing == 0 && slices <= 1
	if replayParallel {
		rec.Parallelism = int(parallel)
	}
	sys, err := newSystem(g, alg, append(rec.Options(), opts...)...)
	if err != nil {
		// With no caller options the recorded configuration alone failed to
		// reconstruct — that is checkpoint damage (CRC-validated bytes can
		// still encode e.g. an asymmetric graph for a symmetric kernel), so
		// the error carries the corruption type. With caller options the
		// conflict may be theirs; surface the plain cause.
		if len(opts) == 0 {
			return nil, fmt.Errorf("%w: recorded configuration does not reconstruct: %w", ErrCorruptCheckpoint, err)
		}
		return nil, fmt.Errorf("jetstream: restore: %w", err)
	}
	if !replayParallel {
		sys.cfg.Engine.Parallelism = int(parallel)
	}

	engDep := sys.js.Engine().Dep()
	if engDep != nil && len(dep) == 0 {
		if len(opts) == 0 {
			return nil, fmt.Errorf("%w: recorded options enable dependency tracking but the checkpoint recorded no dependency state", ErrCorruptCheckpoint)
		}
		return nil, fmt.Errorf("jetstream: restore: options enable dependency tracking but the checkpoint recorded none")
	}
	copy(sys.js.State(), state)
	if engDep != nil {
		copy(engDep, dep)
	}
	// A recorded window overrides whatever WithWindow (if any) the caller
	// passed: the ring's ages are state, not configuration. Without a
	// recorded window, a caller-passed WithWindow stands — New seeded it from
	// the restored graph, so the window starts at the restored position.
	if winTTL > 0 {
		ring, werr := window.FromEntries(int(winTTL), batches, winEntries)
		if werr != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, werr)
		}
		sys.win = ring
		sys.expiredC = sys.reg.Counter("jetstream_window_expired_edges_total")
	} else if sys.win != nil {
		// Caller attached a fresh window mid-stream: re-seed it at the
		// restored batch count so the pre-existing edges live a full TTL from
		// here (New seeded them at epoch 0, which is batches-old history).
		ring, werr := window.New(sys.win.TTL())
		if werr != nil {
			return nil, fmt.Errorf("jetstream: restore: %w", werr)
		}
		ring.Seed(batches, sys.js.Graph().Edges())
		sys.win = ring
	}
	*sys.st = st
	sys.prev = prev
	sys.batches = batches
	sys.js.SetCycleBase(cycles)
	sys.init = true
	return sys, nil
}
