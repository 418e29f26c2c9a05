package jetstream

import (
	"fmt"
	"io"
	"testing"
)

// The durability cost model the WAL is built around: journaling a batch is
// O(delta) — a few hundred bytes framed and written — while a full checkpoint
// is O(V+E). These benchmarks put numbers behind that claim; CI publishes
// them as the bench-durability artifact.

// benchDurableSystem builds a large-ish system with a WAL in b.TempDir.
func benchDurableSystem(b *testing.B, opts ...Option) (*System, *StreamGenerator) {
	b.Helper()
	g := RMAT(RMATConfig{Vertices: 50_000, Edges: 400_000, Seed: 5})
	sys, err := New(g, SSSP(0), append([]Option{WithTiming(false)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	sys.RunInitial()
	return sys, NewStream(StreamConfig{BatchSize: 200, InsertFrac: 0.7, Seed: 12})
}

// BenchmarkWALAppend measures the per-batch journaling cost alone: encode,
// frame, write, fsync (interval policy amortizes the fsync as a real
// deployment would). The engine work is excluded — this is the price of
// durability, not of computation.
func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		o    WALOptions
	}{
		{"sync-batch", WALOptions{Sync: WALSyncEveryBatch}},
		{"sync-interval-16", WALOptions{Sync: WALSyncInterval, Interval: 16}},
		{"sync-none", WALOptions{Sync: WALSyncNone}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, gen := benchDurableSystem(b, WithWALOptions(b.TempDir(), tc.o))
			// Pre-draw batches so generator cost stays out of the loop, and
			// journal through the engine once so the snapshot is paid for.
			batches := make([]Batch, b.N)
			for i := range batches {
				batches[i] = gen.Next(sys.Graph())
			}
			if len(batches) > 0 {
				if _, err := sys.ApplyBatch(batches[0]); err != nil {
					b.Fatal(err)
				}
			}
			before := sys.WALSize()
			b.ResetTimer()
			for i := range batches {
				if err := sys.journal(batches[i]); err != nil {
					b.Fatal(err)
				}
				sys.batches++ // stand in for the engine apply the journal precedes
			}
			b.StopTimer()
			b.SetBytes((sys.WALSize() - before) / int64(max(b.N, 1)))
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkIncrementalCheckpoint compares the two durability strategies at
// one batch per op: incremental (journal the delta, fsync) against rewriting
// a full snapshot every batch. The gap is the O(delta) vs O(V+E) headline.
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		sys, gen := benchDurableSystem(b, WithWAL(b.TempDir()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("full-snapshot", func(b *testing.B) {
		sys, gen := benchDurableSystem(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
				b.Fatal(err)
			}
			if err := sys.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALRecovery measures replay: recover a directory holding a
// snapshot plus a journaled tail. The tail-N arms are SSSP on the 50k/400k
// graph with N 200-update batches; the durable-bulk arms are the benchmark
// workload's tenant shape: RMAT 4,000/64,000, 64 batches of 1,024 updates at
// 50 % inserts, bfs and sswp.
func BenchmarkWALRecovery(b *testing.B) {
	for _, tail := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tail-%d", tail), func(b *testing.B) {
			dir := b.TempDir()
			sys, gen := benchDurableSystem(b, WithWAL(dir))
			benchRecover(b, dir, sys, gen, tail)
		})
	}
	for _, k := range []struct {
		name string
		alg  Algorithm
	}{{"bfs", BFS(0)}, {"sswp", SSWP(0)}} {
		b.Run("durable-bulk/"+k.name, func(b *testing.B) {
			dir := b.TempDir()
			g := RMAT(RMATConfig{Vertices: 4000, Edges: 64000, Seed: 5})
			sys, err := New(g, k.alg, WithTiming(false), WithWAL(dir))
			if err != nil {
				b.Fatal(err)
			}
			sys.RunInitial()
			benchRecover(b, dir, sys, NewStream(StreamConfig{BatchSize: 1024, InsertFrac: 0.5, Seed: 12}), 64)
		})
	}
}

// benchRecover journals tail batches from gen through sys, closes it, and
// times RecoverFromDir on its directory.
func benchRecover(b *testing.B, dir string, sys *System, gen *StreamGenerator, tail int) {
	b.Helper()
	for i := 0; i < tail; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := RecoverFromDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
