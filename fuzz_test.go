package jetstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jetstream/internal/engine"
	"jetstream/internal/graph"
	"jetstream/internal/wal"
)

// fuzzBatch decodes an arbitrary byte string into a Batch. Nothing is
// validated here on purpose: endpoints may be far out of range, weights may be
// NaN, negative or infinite, pairs may repeat — the decoder's job is to reach
// the ugly corners of the input space, ApplyBatch's job is to survive them.
func fuzzBatch(data []byte) Batch {
	var b Batch
	for len(data) >= 5 {
		op := data[0]
		src := uint32(data[1])<<1 | uint32(data[2])>>7 // occasionally out of range
		dst := uint32(data[3])
		var w float64
		switch {
		case len(data) >= 13:
			w = math.Float64frombits(binary.LittleEndian.Uint64(data[5:13]))
			data = data[13:]
		default:
			w = float64(int8(data[4]))
			data = data[5:]
		}
		e := Edge{Src: src, Dst: dst, Weight: w}
		if op%2 == 0 {
			b.Inserts = append(b.Inserts, e)
		} else {
			b.Deletes = append(b.Deletes, e)
		}
	}
	return b
}

// FuzzApplyBatch hardens the public streaming boundary: batches decoded from
// arbitrary bytes must never panic the system. Under Repair every batch is
// accepted (invalid updates dropped and counted) and the surviving state must
// still verify exactly against a from-scratch solve; under Strict a dirty
// batch is rejected with a *BatchError and the state stays untouched.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 5})
	f.Add([]byte{1, 0, 0, 1, 0})                                            // delete of an edge
	f.Add([]byte{0, 255, 255, 255, 128})                                    // out of range, negative weight
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 240, 127})                // +Inf weight
	f.Add([]byte{0, 0, 0, 9, 0, 1, 0, 0, 0, 0, 0, 248, 127, 1, 0, 0, 9, 0}) // NaN weight then delete
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBatch(data)

		g := RMAT(RMATConfig{Vertices: 64, Edges: 256, Seed: 11})
		repair, err := New(g, SSSP(0), WithTiming(false), WithIngest(Repair))
		if err != nil {
			t.Fatal(err)
		}
		repair.RunInitial()
		if _, err := repair.ApplyBatch(b); err != nil {
			t.Fatalf("Repair rejected a batch: %v\nbatch: %+v", err, b)
		}
		if d := repair.Verify(); d != 0 {
			t.Fatalf("Repair state diverged by %v\nbatch: %+v", d, b)
		}

		strict, err := New(g, SSSP(0), WithTiming(false))
		if err != nil {
			t.Fatal(err)
		}
		strict.RunInitial()
		before := strict.State()
		if _, err := strict.ApplyBatch(b); err != nil {
			var be *BatchError
			if !errors.As(err, &be) || len(be.Issues) == 0 {
				t.Fatalf("Strict rejection is not a populated *BatchError: %v", err)
			}
			after := strict.State()
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("Strict rejection mutated state at vertex %d", i)
				}
			}
		}
		if d := strict.Verify(); d != 0 {
			t.Fatalf("Strict state diverged by %v\nbatch: %+v", d, b)
		}
	})
}

// FuzzApplyBatchParallel is the differential fuzz target for the parallel
// engine: the same fuzzed batch stream is applied at parallelism 1 and 4 and
// the SSSP states must match bit for bit — selective kernels converge to the
// unique fixpoint regardless of event interleaving, so any divergence is a
// races-or-routing bug in the sharded path, not numerical noise. The parallel
// side runs twice: as shipped (a 64-vertex graph never fans out on its own)
// and with every compute phase forced onto the PE workers.
func FuzzApplyBatchParallel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 5})
	f.Add([]byte{1, 0, 0, 1, 0})
	f.Add([]byte{0, 255, 255, 255, 128})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 240, 127})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBatch(data)
		g := RMAT(RMATConfig{Vertices: 64, Edges: 256, Seed: 11})

		run := func(p int) *System {
			sys, err := New(g, SSSP(0), WithTiming(false), WithParallelism(p), WithIngest(Repair))
			if err != nil {
				t.Fatal(err)
			}
			sys.RunInitial()
			if _, err := sys.ApplyBatch(b); err != nil {
				t.Fatalf("p=%d rejected a repaired batch: %v", p, err)
			}
			if d := sys.Verify(); d != 0 {
				t.Fatalf("p=%d state diverged from reference by %v\nbatch: %+v", p, d, b)
			}
			return sys
		}

		seq := run(1).State()
		for _, arm := range fanoutArms {
			func() {
				if arm.force {
					defer engine.SetFanoutThresholdForTest(0)()
				}
				sys := run(4)
				if arm.force {
					requireFannedOut(t, sys)
				}
				for i, par := range sys.State() {
					if seq[i] != par {
						t.Fatalf("%s: vertex %d: parallel state %v != sequential %v\nbatch: %+v", arm.name, i, par, seq[i], b)
					}
				}
			}()
		}
	})
}

// FuzzRestore hardens the checkpoint reader against arbitrary bytes. Each
// input is fed to Restore twice: raw, which exercises the frame checks
// (magic, version, length, checksum), and wrapped in a valid frame — correct
// magic, current version, matching length and CRC64 — which carries the
// fuzzer's payload past the envelope into the deep field decoder. Restore
// must never panic and every rejection must wrap ErrCorruptCheckpoint (with
// ErrTruncated additionally marking short input).
func FuzzRestore(f *testing.F) {
	// Seed with a real checkpoint so mutations explore the valid format's
	// neighborhood, plus its truncations and an empty input.
	sys, err := New(RMAT(RMATConfig{Vertices: 32, Edges: 128, Seed: 3}), SSSP(0), WithTiming(false))
	if err != nil {
		f.Fatal(err)
	}
	sys.RunInitial()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	f.Add(valid[len(ckptMagic)+12:]) // payload without frame
	f.Add(nanCheckpoint(f))          // a vertex state of NaN

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(form string, r *bytes.Reader) {
			sys, err := Restore(r)
			if err == nil {
				if sys == nil {
					t.Fatalf("%s: nil system with nil error", form)
				}
				return
			}
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("%s: rejection does not wrap ErrCorruptCheckpoint: %v", form, err)
			}
		}
		check("raw", bytes.NewReader(data))

		framed := make([]byte, 0, len(ckptMagic)+12+len(data)+8)
		framed = append(framed, ckptMagic[:]...)
		framed = binary.LittleEndian.AppendUint32(framed, ckptVersion)
		framed = binary.LittleEndian.AppendUint64(framed, uint64(len(data)))
		framed = append(framed, data...)
		framed = binary.LittleEndian.AppendUint64(framed, crc64.Checksum(data, ckptCRC))
		check("framed", bytes.NewReader(framed))
	})
}

// FuzzWindowExpiry drives a windowed system through fuzzed insert/delete
// interleavings (TTL derived from the input too) and holds it to the rebuild
// oracle: after every batch the graph must hold exactly the in-window edges an
// independent per-edge age map predicts, the functional state must verify
// exactly against a from-scratch solve on that graph, and the system must
// never panic — under Repair every batch lands, under Strict a dirty batch is
// rejected with a populated *BatchError and the window untouched.
func FuzzWindowExpiry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 2, 5})
	f.Add([]byte{1, 1, 0, 0, 1, 0})
	f.Add([]byte{3, 0, 255, 255, 255, 128})
	f.Add([]byte{2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 240, 127, 1, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ttl := 1
		if len(data) > 0 {
			ttl = 1 + int(data[0]%4)
			data = data[1:]
		}
		// Slice the remaining bytes into up to 6 batches so expiry actually
		// interleaves with the fuzzed updates over several epochs.
		var batches []Batch
		for len(data) > 0 && len(batches) < 6 {
			n := len(data)
			if n > 16 {
				n = 16
			}
			batches = append(batches, fuzzBatch(data[:n]))
			data = data[n:]
		}
		for len(batches) < ttl+2 {
			batches = append(batches, Batch{}) // quiet epochs force expiry past the TTL
		}

		g := RMAT(RMATConfig{Vertices: 64, Edges: 256, Seed: 11})
		sys, err := New(g, SSSP(0), WithTiming(false), WithIngest(Repair), WithWindow(ttl))
		if err != nil {
			t.Fatal(err)
		}
		sys.RunInitial()
		// Independent oracle: edge → insertion epoch.
		age := make(map[[2]uint32]uint64, g.NumEdges())
		for _, e := range g.Edges() {
			age[[2]uint32{e.Src, e.Dst}] = 0
		}
		for i, b := range batches {
			k := uint64(i + 1)
			// Mirror the system's sanitize on the pre-batch graph (pure) so
			// the oracle applies exactly the surviving updates.
			clean, _ := sys.Graph().SanitizeBatch(b)
			if _, err := sys.ApplyBatch(b); err != nil {
				t.Fatalf("Repair rejected batch %d: %v\nbatch: %+v", k, err, b)
			}
			for _, e := range clean.Deletes {
				delete(age, [2]uint32{e.Src, e.Dst})
			}
			for key, epoch := range age {
				if epoch+uint64(ttl) <= k {
					delete(age, key)
				}
			}
			for _, e := range clean.Inserts {
				age[[2]uint32{e.Src, e.Dst}] = k
			}
			cur := sys.Graph()
			if cur.NumEdges() != len(age) {
				t.Fatalf("batch %d: graph holds %d edges, oracle %d\nbatch: %+v", k, cur.NumEdges(), len(age), b)
			}
			for key := range age {
				if _, ok := cur.HasEdge(key[0], key[1]); !ok {
					t.Fatalf("batch %d: in-window edge (%d,%d) missing\nbatch: %+v", k, key[0], key[1], b)
				}
			}
			if d := sys.Verify(); d != 0 {
				t.Fatalf("batch %d: state diverged by %v\nbatch: %+v", k, d, b)
			}
		}

		// Strict variant: one fuzzed batch against a fresh windowed system —
		// a rejection must be a populated *BatchError with state and window
		// both untouched (the next empty batch expires exactly the full
		// initial graph at the TTL boundary).
		if len(batches) == 0 {
			return
		}
		strict, err := New(g, SSSP(0), WithTiming(false), WithWindow(ttl))
		if err != nil {
			t.Fatal(err)
		}
		strict.RunInitial()
		before := strict.State()
		if _, err := strict.ApplyBatch(batches[0]); err != nil {
			var be *BatchError
			if !errors.As(err, &be) || len(be.Issues) == 0 {
				t.Fatalf("Strict rejection is not a populated *BatchError: %v", err)
			}
			after := strict.State()
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("Strict rejection mutated state at vertex %d", i)
				}
			}
			expired := uint64(0)
			for k := 1; k <= ttl; k++ {
				res, err := strict.ApplyBatch(Batch{})
				if err != nil {
					t.Fatalf("post-rejection empty batch %d: %v", k, err)
				}
				expired += res.Expired
			}
			if expired != uint64(g.NumEdges()) {
				t.Fatalf("rejection disturbed the window: %d edges expired by the TTL boundary, want %d", expired, g.NumEdges())
			}
		}
	})
}

// FuzzWALReplay hardens the log reader: arbitrary bytes fed to both Replay
// (strict: contiguous sequence from the snapshot position) and Scan (any
// start) must never panic; rejections must wrap wal.ErrCorrupt and a clean
// torn tail must be reported through ReplayStats, not an error.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real two-record log and its torn/rotted variants.
	dir := f.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		b := Batch{Inserts: []Edge{{Src: uint32(i), Dst: uint32(i + 1), Weight: 1}}}
		if err := l.Append(uint64(i), b); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, wal.LogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	rotted := append([]byte(nil), valid...)
	rotted[9] ^= 0x40
	f.Add(rotted)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := wal.Replay(data, 0, func(wal.Record) error { return nil })
		if err != nil && !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Replay rejection does not wrap ErrCorrupt: %v", err)
		}
		if err == nil && st.Truncated && st.ValidSize >= int64(len(data)) {
			t.Fatalf("truncated stats without dropped bytes: %+v over %d bytes", st, len(data))
		}
		if _, err := wal.Scan(data); err != nil && !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Scan rejection does not wrap ErrCorrupt: %v", err)
		}
	})
}

// foldRecords decodes a byte string into one to six raw batches over a
// 12-vertex graph: the first byte picks the record count, then every three
// bytes are one update (op byte: low bit delete, next two bits weight−1;
// source; destination). Small ids make records collide on pairs, which is
// what the fold has to get right; the batches are not sanitized.
func foldRecords(data []byte) []Batch {
	recs, ops := make([]Batch, 1), data
	if len(data) > 0 {
		recs, ops = make([]Batch, 1+int(data[0])%6), data[1:]
	}
	per := max(1, len(ops)/3/len(recs))
	for i := 0; i+3 <= len(ops); i += 3 {
		b := &recs[min(i/3/per, len(recs)-1)]
		e := Edge{Src: uint32(ops[i+1]) % 12, Dst: uint32(ops[i+2]) % 12, Weight: float64(1 + ops[i]>>1&3)}
		if ops[i]&1 == 1 {
			b.Deletes = append(b.Deletes, e)
		} else {
			b.Inserts = append(b.Inserts, e)
		}
	}
	return recs
}

// FuzzFold checks the fold against sequential application. The records are
// sanitized one by one against the evolving graph, as the journal holds
// them. Arm one: graph.Fold's net delta, applied in one batch, reaches the
// same edge set and a bitwise-equal state for each selective kernel. Arm
// two: a windowed system journals the records and a folded recovery lands
// on the same graph, state and epoch ring — the next TTL batches expire the
// same edges on both.
func FuzzFold(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 1, 2, 1, 1, 2}, uint8(1))                            // insert then delete: cancels
	f.Add([]byte{2, 1, 0, 1, 2, 0, 1}, uint8(2))                            // delete then re-insert: weight change
	f.Add([]byte{5, 0, 3, 4, 0, 4, 5, 1, 3, 4, 2, 3, 4, 0, 7, 8}, uint8(3)) // churn across records
	g := RMAT(RMATConfig{Vertices: 12, Edges: 40, Seed: 9})
	kernels := []func() Algorithm{func() Algorithm { return SSSP(0) }, func() Algorithm { return SSWP(0) }, func() Algorithm { return BFS(0) }}
	f.Fuzz(func(t *testing.T, data []byte, ttl uint8) {
		raw := foldRecords(data)
		for _, alg := range kernels {
			seq, err := New(g, alg(), WithTiming(false))
			if err != nil {
				t.Fatal(err)
			}
			seq.RunInitial()
			var recs []Batch
			for _, b := range raw {
				clean, _ := seq.Graph().SanitizeBatch(b)
				if _, err := seq.ApplyBatch(clean); err != nil {
					t.Fatalf("sequential %s: %v", seq.alg.Name(), err)
				}
				recs = append(recs, clean)
			}
			net, err := graph.Fold(g, 1, recs)
			if err != nil {
				t.Fatalf("fold of sanitized records: %v", err)
			}
			folded, err := New(g, alg(), WithTiming(false))
			if err != nil {
				t.Fatal(err)
			}
			folded.RunInitial()
			if _, err := folded.ApplyBatch(net); err != nil {
				t.Fatalf("%s: net delta does not apply: %v", seq.alg.Name(), err)
			}
			if diff := sameEdges(folded.Graph(), seq.Graph()); diff != "" {
				t.Fatalf("%s: folded graph: %s", seq.alg.Name(), diff)
			}
			if !bitwiseEqual(folded.State(), seq.State()) {
				t.Fatalf("%s: folded state differs from sequential", seq.alg.Name())
			}
		}

		w := 1 + int(ttl%4)
		dir := t.TempDir()
		seq, err := New(g, SSSP(0), WithTiming(false), WithIngest(Repair), WithWindow(w),
			WithWALOptions(dir, WALOptions{Sync: WALSyncNone}))
		if err != nil {
			t.Fatal(err)
		}
		seq.RunInitial()
		for _, b := range raw {
			if _, err := seq.ApplyBatch(b); err != nil {
				t.Fatalf("windowed sequential: %v", err)
			}
		}
		if err := seq.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverFromDir(dir)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer rec.Close()
		if got := rec.Recovery(); got.Replayed != len(raw) || !got.Folded {
			t.Fatalf("recovery report %+v after %d records", got, len(raw))
		}
		for k := 0; ; k++ {
			if diff := sameEdges(rec.Graph(), seq.Graph()); diff != "" {
				t.Fatalf("windowed, %d batches after recovery: %s", k, diff)
			}
			if !bitwiseEqual(rec.State(), seq.State()) {
				t.Fatalf("windowed, %d batches after recovery: state differs", k)
			}
			if k == w {
				break
			}
			want, err := seq.ApplyBatch(Batch{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rec.ApplyBatch(Batch{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Expired != want.Expired {
				t.Fatalf("batch %d after recovery expired %d edges, sequential %d", k+1, got.Expired, want.Expired)
			}
		}
	})
}
