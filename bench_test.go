package jetstream

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (backed by the same internal/bench harness as cmd/experiments,
// in its quick configuration), plus microbenchmarks of the core machinery.
// Reported custom metrics carry the experiment's headline numbers so
// `go test -bench` output doubles as a miniature results table; the full
// reports come from `go run ./cmd/experiments`.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jetstream/internal/bench"
	"jetstream/internal/core"
	"jetstream/internal/event"
	"jetstream/internal/mem"
	"jetstream/internal/queue"
	"jetstream/internal/stats"
)

// ---------------------------------------------------------------------------
// Tables and figures
// ---------------------------------------------------------------------------

func BenchmarkTable3Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		gpSSSP, ksSSSP := res.GeoMeans("sssp")
		gpPR, gbPR := res.GeoMeans("pagerank")
		b.ReportMetric(gpSSSP, "sssp-vs-GP-x")
		b.ReportMetric(ksSSSP, "sssp-vs-KS-x")
		b.ReportMetric(gpPR, "pr-vs-GP-x")
		b.ReportMetric(gbPR, "pr-vs-GB-x")
	}
}

func BenchmarkFig9Accesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		var vsum, esum float64
		for _, c := range res.Cells {
			vsum += c.VertexRatio
			esum += c.EdgeRatio
		}
		n := float64(len(res.Cells))
		b.ReportMetric(vsum/n, "mean-vertex-ratio")
		b.ReportMetric(esum/n, "mean-edge-ratio")
	}
}

func BenchmarkFig10Resets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		var jet, ks float64
		for _, c := range res.Cells {
			jet += float64(c.JetResets)
			ks += float64(c.KSResets)
		}
		b.ReportMetric(jet, "jetstream-resets")
		b.ReportMetric(ks, "kickstarter-resets")
	}
}

func BenchmarkFig11MemUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		var jet, gp float64
		for _, c := range res.Cells {
			jet += c.JetUtil
			gp += c.GPUtil
		}
		n := float64(len(res.Cells))
		b.ReportMetric(jet/n, "jetstream-util")
		b.ReportMetric(gp/n, "graphpulse-util")
	}
}

func BenchmarkFig12Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var base, vap, dap float64
		for _, c := range res.Cells {
			base += c.Base
			vap += c.VAP
			dap += c.DAP
		}
		n := float64(len(res.Cells))
		b.ReportMetric(base/n, "base-speedup-x")
		b.ReportMetric(vap/n, "vap-speedup-x")
		b.ReportMetric(dap/n, "dap-speedup-x")
	}
}

func BenchmarkFig13BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			last := s.Points[len(s.Points)-1]
			if s.Algo == "sssp" {
				b.ReportMetric(last.Jet, "sssp-smallbatch-x")
			} else {
				b.ReportMetric(last.Jet, "pr-smallbatch-x")
			}
		}
	}
}

func BenchmarkFig14Composition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		res, err := r.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			var ins, del float64
			for _, p := range s.Points {
				if p.InsertPct == 100 {
					ins = p.Jet
				}
				if p.InsertPct == 0 {
					del = p.Jet
				}
			}
			if s.Algo == "sssp" && ins > 0 {
				b.ReportMetric(del/ins, "sssp-del-over-ins")
			}
		}
	}
}

func BenchmarkTable4PowerArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(true)
		_ = r.Table4()
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the core machinery
// ---------------------------------------------------------------------------

// BenchmarkInitialEvaluation measures a full static run (the GraphPulse
// baseline) in events per second.
func BenchmarkInitialEvaluation(b *testing.B) {
	g := RMAT(RMATConfig{Vertices: 20000, Edges: 160000, Seed: 1})
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		sys, _ := New(g, SSSP(0), WithTiming(false))
		res := sys.RunInitial()
		events += res.Stats.EventsProcessed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkParallelism compares the functional engine's throughput across
// worker counts on a LiveJournal-scale synthetic stream: a full static
// evaluation plus an incremental batch train, reported in events per second.
// Run p1 against p8 on a multi-core machine to measure the parallel speedup
// (the CI bench job uploads this comparison as an artifact); on a single
// hardware thread the worker goroutines serialize and the two converge.
func BenchmarkParallelism(b *testing.B) {
	g := RMAT(RMATConfig{Vertices: 100000, Edges: 800000, Seed: 1})
	for _, p := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys, err := New(g, PageRank(0), WithTiming(false), WithParallelism(p))
				if err != nil {
					b.Fatal(err)
				}
				gen := NewStream(StreamConfig{BatchSize: 500, InsertFrac: 0.7, Seed: 2})
				start := time.Now()
				res := sys.RunInitial()
				events += res.Stats.EventsProcessed
				for j := 0; j < 4; j++ {
					br, err := sys.ApplyBatch(gen.Next(sys.Graph()))
					if err != nil {
						b.Fatal(err)
					}
					events += br.Stats.EventsProcessed
				}
				elapsed += time.Since(start)
			}
			if secs := elapsed.Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/sec")
			}
		})
	}
}

// BenchmarkStreamingBatch measures one incremental batch end to end (engine
// plus graph mutation), sweeping the batch size and the mutation path. The
// delta/rebuild comparison is the system-level view of the ApplyBatch
// speedup; the CI bench-applybatch job uploads the sweep as an artifact.
func BenchmarkStreamingBatch(b *testing.B) {
	g := RMAT(RMATConfig{Vertices: 20000, Edges: 160000, Seed: 1})
	for _, bs := range []int{100, 1000} {
		for _, mode := range []string{"delta", "rebuild"} {
			b.Run(fmt.Sprintf("%s/batch%d", mode, bs), func(b *testing.B) {
				opts := []Option{WithTiming(false)}
				if mode == "rebuild" {
					opts = append(opts, withGraphRebuild())
				}
				sys, err := New(g, SSSP(0), opts...)
				if err != nil {
					b.Fatal(err)
				}
				sys.RunInitial()
				gen := NewStream(StreamConfig{BatchSize: bs, InsertFrac: 0.7, Seed: 2})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStreamingBatchWithTiming includes the cycle model.
func BenchmarkStreamingBatchWithTiming(b *testing.B) {
	g := RMAT(RMATConfig{Vertices: 20000, Edges: 160000, Seed: 1})
	sys, _ := New(g, SSSP(0), WithTiming(true))
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 100, InsertFrac: 0.7, Seed: 2})
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sys.ApplyBatch(gen.Next(sys.Graph()))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "modelcycles/batch")
}

// BenchmarkQueueInsertCoalesce measures the coalescing queue's insert path.
func BenchmarkQueueInsertCoalesce(b *testing.B) {
	st := &stats.Counters{}
	q := queue.New(1<<16, queue.DefaultConfig(), queue.ReduceCoalesce(func(a, c float64) float64 {
		if a < c {
			return a
		}
		return c
	}), st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(event.New(uint32(i)&0xffff, float64(i)))
		if i&0xffff == 0xffff {
			q.Drain(func([]event.Event) {})
		}
	}
}

// BenchmarkDRAMModel measures the memory timing model's access path.
func BenchmarkDRAMModel(b *testing.B) {
	d := mem.NewDRAM(mem.DefaultDRAMConfig(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(uint64(i), uint64(i*64)%(1<<28))
	}
}

// BenchmarkGraphApplyBatch measures CSR version construction in isolation on
// a 100k-vertex graph: the full compacting rebuild (Apply) against the
// slack-based in-place path (ApplyDelta), across batch sizes. Each iteration
// ping-pongs a forward batch and its exact inverse (deletes carry the stored
// weights), so both arms stay valid against the evolving graph and the delta
// arm exercises the in-place path on every iteration rather than decaying
// into compaction. The acceptance target is >=5x fewer ns/op and >=10x fewer
// allocs/op for the delta arm at batch sizes <=1k.
func BenchmarkGraphApplyBatch(b *testing.B) {
	// The two daemon streams of benchmark/ (durable-bulk's tenants and
	// delete-window's sssp tenant): deletes drawn uniformly over edges, so
	// they land on hubs, inserts uniformly over vertices. One op is what the
	// graph layer does for one batch — SanitizeBatch, then ApplyDelta — with
	// generation outside the timer. Nobody reads the superseded versions here,
	// so rebuilt-segments/op reads 0: an unread version costs its ops only.
	for _, row := range []struct {
		name            string
		vertices, edges int
		batch           int
	}{{"bulk/V4k_E64k_b1024", 4000, 64000, 1024}, {"hubdelete/V20k_E160k_b256", 20000, 160000, 256}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			cur, err := RMAT(RMATConfig{Vertices: row.vertices, Edges: row.edges, Seed: 7000}).ApplyDelta(Batch{})
			if err != nil {
				b.Fatal(err)
			}
			gen := NewStream(StreamConfig{BatchSize: row.batch, InsertFrac: 0.5, Seed: 7500})
			before := cur.LayoutStats()
			updates := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := gen.Next(cur)
				b.StartTimer()
				clean, issues := cur.SanitizeBatch(batch)
				if len(issues) > 0 {
					b.Fatal(issues[0])
				}
				ng, err := cur.ApplyDelta(clean)
				if err != nil {
					b.Fatal(err)
				}
				cur = ng
				updates += clean.Size()
			}
			b.StopTimer()
			after := cur.LayoutStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
			b.ReportMetric(float64(after.UndoRebuilt-before.UndoRebuilt)/float64(b.N), "rebuilt-segments/op")
			b.ReportMetric(float64(after.Relayouts-before.Relayouts)/float64(b.N), "relayouts/op")
		})
	}
	g := RMAT(RMATConfig{Vertices: 100000, Edges: 800000, Seed: 1})
	for _, bs := range []int{100, 1000} {
		gen := NewStream(StreamConfig{BatchSize: bs, InsertFrac: 0.5, Seed: 3})
		fwd := gen.Next(g)
		rev := Batch{Inserts: fwd.Deletes, Deletes: fwd.Inserts}
		b.Run(fmt.Sprintf("rebuild/batch%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			cur := g
			batches := [2]Batch{fwd, rev}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ng, err := cur.Apply(batches[i&1])
				if err != nil {
					b.Fatal(err)
				}
				cur = ng
			}
		})
		b.Run(fmt.Sprintf("delta/batch%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			// Pay the one-time dense->slacked conversion outside the loop.
			cur, err := g.ApplyDelta(Batch{})
			if err != nil {
				b.Fatal(err)
			}
			batches := [2]Batch{fwd, rev}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ng, err := cur.ApplyDelta(batches[i&1])
				if err != nil {
					b.Fatal(err)
				}
				cur = ng
			}
		})
		b.Run(fmt.Sprintf("stream/batch%d", bs), func(b *testing.B) {
			// Fresh generator batches against the evolving graph, the way a
			// tenant sees them: nothing undoes an insert, so slack fills and
			// vertices overflow — what the ping-pong arm above can never show.
			// Generation (which ranks edges through an O(V) index) stays
			// outside the timer.
			b.ReportAllocs()
			cur, err := g.ApplyDelta(Batch{})
			if err != nil {
				b.Fatal(err)
			}
			stream := NewStream(StreamConfig{BatchSize: bs, InsertFrac: 0.5, Seed: 5})
			before := cur.LayoutStats()
			var slowest time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := stream.Next(cur)
				b.StartTimer()
				t0 := time.Now()
				ng, err := cur.ApplyDelta(batch)
				if d := time.Since(t0); d > slowest {
					slowest = d
				}
				if err != nil {
					b.Fatal(err)
				}
				cur = ng
			}
			after := cur.LayoutStats()
			b.ReportMetric(float64(after.Relocations-before.Relocations)/float64(b.N), "relocations/op")
			b.ReportMetric(float64(after.Relayouts-before.Relayouts)/float64(b.N), "relayouts/op")
			b.ReportMetric(float64(slowest.Nanoseconds()), "slowest-ns")
		})
	}
}

// BenchmarkQueueSparseDrain measures one DrainRound over a nearly empty
// queue as the vertex space grows: ~1k live events regardless of n. The old
// drain walked every slot (linear in n); the bitmap drain must stay roughly
// flat, demonstrating output-sensitive cost.
func BenchmarkQueueSparseDrain(b *testing.B) {
	min := queue.ReduceCoalesce(func(a, c float64) float64 {
		if a < c {
			return a
		}
		return c
	})
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("v%d", n), func(b *testing.B) {
			q := queue.New(n, queue.DefaultConfig(), min, nil)
			rng := rand.New(rand.NewSource(7))
			targets := make([]uint32, 1000)
			for i := range targets {
				targets[i] = uint32(rng.Intn(n))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range targets {
					q.Insert(event.New(t, 1))
				}
				q.DrainRound(func([]event.Event) {})
			}
		})
	}
}

// BenchmarkMetricsOverhead measures the cost of the always-on observability
// layer on the functional streaming path: "bare-engine" drives the core
// engine directly with no registry attached, "noop-observer" runs the full
// public System — metrics registry, per-batch latency histogram, and a
// do-nothing WithObserver callback. The acceptance budget for the gap is
// <=3% events/sec; the CI bench job uploads the comparison as an artifact.
func BenchmarkMetricsOverhead(b *testing.B) {
	g := RMAT(RMATConfig{Vertices: 100000, Edges: 800000, Seed: 1})
	report := func(b *testing.B, events uint64, elapsed time.Duration) {
		if secs := elapsed.Seconds(); secs > 0 {
			b.ReportMetric(float64(events)/secs, "events/sec")
		}
	}
	b.Run("bare-engine", func(b *testing.B) {
		var events uint64
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			st := &stats.Counters{}
			cfg := core.ConfigWithOpt(OptDAP)
			cfg.Engine.Timing = false
			js := core.New(g, PageRank(0), cfg, st)
			gen := NewStream(StreamConfig{BatchSize: 500, InsertFrac: 0.7, Seed: 2})
			start := time.Now()
			js.RunInitial()
			for j := 0; j < 4; j++ {
				if err := js.ApplyBatch(gen.Next(js.Graph())); err != nil {
					b.Fatal(err)
				}
			}
			elapsed += time.Since(start)
			events += st.EventsProcessed
		}
		report(b, events, elapsed)
	})
	b.Run("noop-observer", func(b *testing.B) {
		var events uint64
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			sys, err := New(g, PageRank(0), WithTiming(false),
				WithObserver(ObserverFunc(func(TraceEvent) {})))
			if err != nil {
				b.Fatal(err)
			}
			gen := NewStream(StreamConfig{BatchSize: 500, InsertFrac: 0.7, Seed: 2})
			start := time.Now()
			sys.RunInitial()
			for j := 0; j < 4; j++ {
				if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
					b.Fatal(err)
				}
			}
			elapsed += time.Since(start)
			events += sys.TotalStats().EventsProcessed
		}
		report(b, events, elapsed)
	})
}
