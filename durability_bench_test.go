package jetstream

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"jetstream/internal/algo"
	"jetstream/internal/wal"
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
// 50 % inserts, bfs and sswp. The delete-window arms are that workload's two
// tenants after its 40 warm-up batches: a TTL-32 wcc tenant on RMAT
// 20,000/40,000 symmetrized, taking 512 inserts a batch (its tail expires
// the whole initial graph), and an sssp tenant on 20,000/160,000 taking 256
// updates a batch at 50 % inserts.
func BenchmarkWALRecovery(b *testing.B) {
	for _, tail := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tail-%d", tail), func(b *testing.B) {
			dir := b.TempDir()
			sys, gen := benchDurableSystem(b, WithWAL(dir))
			benchRecover(b, dir, sys, gen, tail)
		})
	}
	for _, sh := range recoveryShapes {
		for _, k := range sh.arms {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				dir := b.TempDir()
				sys := sh.system(b, k, WithWAL(dir))
				benchRecover(b, dir, sys, NewStream(sh.streamFor(k)), sh.armTail)
			})
		}
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

// recoveryKernel is one selective kernel of a recovery shape.
type recoveryKernel struct {
	name string
	alg  func() Algorithm
}

// recoveryShape is one tenant shape of the recovery benchmarks: a graph, the
// stream its log records come from and an optional window; the kernels
// BenchmarkWALRecovery recovers after armTail records (arms); and the
// kernels and tails BenchmarkRecoveryCrossover sweeps.
type recoveryShape struct {
	name    string
	graph   RMATConfig
	sym     bool
	ttl     int
	stream  StreamConfig
	arms    []recoveryKernel
	armTail int
	kernels []recoveryKernel
	tails   []int
}

var (
	rkSSSP = recoveryKernel{"sssp", func() Algorithm { return SSSP(0) }}
	rkSSWP = recoveryKernel{"sswp", func() Algorithm { return SSWP(0) }}
	rkBFS  = recoveryKernel{"bfs", func() Algorithm { return BFS(0) }}
	rkCC   = recoveryKernel{"cc", func() Algorithm { return CC() }}
	rkWCC  = recoveryKernel{"wcc", func() Algorithm { return WCC() }}
)

var recoveryShapes = []recoveryShape{
	{name: "tail", graph: RMATConfig{Vertices: 50_000, Edges: 400_000, Seed: 5},
		stream:  StreamConfig{BatchSize: 200, InsertFrac: 0.7, Seed: 12},
		kernels: []recoveryKernel{rkSSSP, rkSSWP, rkBFS, rkCC}, tails: []int{1, 4, 16, 64}},
	{name: "durable-bulk", graph: RMATConfig{Vertices: 4000, Edges: 64000, Seed: 5},
		stream: StreamConfig{BatchSize: 1024, InsertFrac: 0.5, Seed: 12},
		arms:   []recoveryKernel{rkBFS, rkSSWP}, armTail: 64,
		kernels: []recoveryKernel{rkBFS, rkSSWP, rkSSSP, rkCC}, tails: []int{1, 2, 4, 8, 12, 16, 24, 32, 64, 128}},
	{name: "delete-window", graph: RMATConfig{Vertices: 20_000, Edges: 40_000, Seed: 5}, sym: true, ttl: 32,
		stream: StreamConfig{BatchSize: 512, InsertFrac: 1, Seed: 12},
		arms:   []recoveryKernel{rkWCC}, armTail: 40,
		kernels: []recoveryKernel{rkWCC}, tails: []int{1, 4, 8, 16, 24, 32, 33, 40, 64}},
	{name: "delete-window", graph: RMATConfig{Vertices: 20_000, Edges: 160_000, Seed: 5},
		stream: StreamConfig{BatchSize: 256, InsertFrac: 0.5, Seed: 12},
		arms:   []recoveryKernel{rkSSSP}, armTail: 40,
		kernels: []recoveryKernel{rkSSSP}, tails: []int{1, 4, 16, 40, 64, 96, 128, 192}},
}

// symmetric reports whether the shape runs kernel k undirected: graph and
// stream both symmetrized.
func (sh recoveryShape) symmetric(k recoveryKernel) bool {
	return sh.sym || algo.NeedsSymmetric(k.alg())
}

// streamFor is the shape's stream for kernel k.
func (sh recoveryShape) streamFor(k recoveryKernel) StreamConfig {
	c := sh.stream
	c.Symmetric = sh.symmetric(k)
	return c
}

// system builds the shape's System for kernel k, initial evaluation done.
func (sh recoveryShape) system(b *testing.B, k recoveryKernel, opts ...Option) *System {
	b.Helper()
	g := RMAT(sh.graph)
	alg := k.alg()
	if sh.symmetric(k) {
		g = Symmetrize(g)
	}
	opts = append([]Option{WithTiming(false)}, opts...)
	if sh.ttl > 0 {
		opts = append(opts, WithWindow(sh.ttl))
	}
	sys, err := New(g, alg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	sys.RunInitial()
	return sys
}

// BenchmarkRecoveryCrossover is the sweep rebuildDiv is derived from: for
// every recovery shape and selective kernel it journals the longest tail
// once, then recovers each shorter prefix of the log down both folded
// paths, incremental and rebuilt, and prints one markdown table per kernel:
// the net delta against E, the two costs, which path rebuildsTail picks.
// Under each table is the kernel's break-even net/E: interpolated between
// the last tail the incremental path wins and the next, from which the
// rebuilt path wins every longer tail. The last line is the median
// break-even over the kernels that reach one, and the divisor it implies.
// Run it with
//
//	go test -run NONE -bench RecoveryCrossover -benchtime 10x .
func BenchmarkRecoveryCrossover(b *testing.B) {
	var evens []float64
	for _, sh := range recoveryShapes {
		for _, k := range sh.kernels {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				src := b.TempDir()
				sys := sh.system(b, k, WithWALOptions(src, WALOptions{Sync: WALSyncNone}))
				base, edges := sys.Graph(), sys.Graph().NumEdges()
				gen := NewStream(sh.streamFor(k))
				var ends []int64
				for i := 0; i < sh.tails[len(sh.tails)-1]; i++ {
					if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
						b.Fatal(err)
					}
					ends = append(ends, sys.WALSize())
				}
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
				var rows []crossoverRow
				for _, tail := range sh.tails {
					dir := logPrefix(b, src, ends[tail-1])
					row := crossoverRow{tail: tail}
					for _, path := range []ReplayPath{ReplayFolded, ReplayRebuilt} {
						b.Run(fmt.Sprintf("tail-%d/%v", tail, path), func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								rec, err := recoverDir(dir, path, nil)
								if err != nil {
									b.Fatal(err)
								}
								b.StopTimer()
								if row.net == 0 {
									row.net = netDelta(base, rec.Graph())
								}
								if err := rec.Close(); err != nil {
									b.Fatal(err)
								}
								b.StartTimer()
							}
							row.frac = float64(row.net) / float64(edges)
							b.ReportMetric(row.frac, "net/E")
							row.cost[path-ReplayFolded] = b.Elapsed() / time.Duration(b.N)
						})
					}
					rows = append(rows, row)
				}
				if even, ok := printCrossover(b.Name(), edges, rows); ok {
					evens = append(evens, even)
				}
			})
		}
	}
	if len(evens) > 0 {
		slices.Sort(evens)
		med := evens[len(evens)/2]
		if len(evens)%2 == 0 {
			med = (evens[len(evens)/2-1] + med) / 2
		}
		fmt.Printf("median break-even over %d kernels: net/E = %.3f, E/%.1f (rebuildDiv = %d)\n",
			len(evens), med, 1/med, rebuildDiv)
	}
}

// crossoverRow is one tail of the sweep: its net delta, absolute and as a
// fraction of E, and the cost of each folded path, incremental then rebuilt.
type crossoverRow struct {
	tail, net int
	frac      float64
	cost      [2]time.Duration
}

// ratio is the rebuilt path's cost over the incremental one's.
func (r crossoverRow) ratio() float64 { return float64(r.cost[1]) / float64(r.cost[0]) }

// printCrossover prints the sweep's table for one kernel and shape and
// returns its break-even net/E, if the sweep reached one.
func printCrossover(name string, edges int, rows []crossoverRow) (float64, bool) {
	var t strings.Builder
	fmt.Fprintf(&t, "%s, E = %d\n\n| tail | net ops | net/E | incremental ms | rebuilt ms | rebuilt/incremental | rebuildsTail |\n|---|---|---|---|---|---|---|\n", name, edges)
	for _, r := range rows {
		fmt.Fprintf(&t, "| %d | %d | %.3f | %.2f | %.2f | %.2f | %v |\n", r.tail, r.net, r.frac,
			ms(r.cost[0]), ms(r.cost[1]), r.ratio(), rebuildsTail(r.net, edges))
	}
	i := len(rows) // the first row of the run of rebuilt wins that ends the table
	for i > 0 && rows[i-1].ratio() < 1 {
		i--
	}
	switch {
	case i == len(rows):
		fmt.Fprintf(&t, "\nbreak-even: not reached (the incremental path wins the longest tail)\n")
		fmt.Println(t.String())
		return 0, false
	case i == 0:
		fmt.Fprintf(&t, "\nbreak-even: below the shortest tail (the rebuilt path wins every tail)\n")
		fmt.Println(t.String())
		return 0, false
	}
	lo, hi := rows[i-1], rows[i]
	even := lo.frac + (lo.ratio()-1)/(lo.ratio()-hi.ratio())*(hi.frac-lo.frac)
	fmt.Fprintf(&t, "\nbreak-even: net/E = %.3f (between tails %d and %d)\n", even, lo.tail, hi.tail)
	fmt.Println(t.String())
	return even, true
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// logPrefix copies the snapshot of WAL directory src and the first size
// bytes of its log to a fresh directory and returns it.
func logPrefix(b *testing.B, src string, size int64) string {
	b.Helper()
	dir := b.TempDir()
	snap, err := os.ReadFile(filepath.Join(src, SnapshotName))
	if err != nil {
		b.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, wal.LogName))
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), snap, 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wal.LogName), log[:size], 0o644); err != nil {
		b.Fatal(err)
	}
	return dir
}
