package jetstream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// runStream builds a system over a fixed RMAT graph, runs the initial
// evaluation and a few update batches, and returns it.
func runStream(t *testing.T, opts ...Option) *System {
	t.Helper()
	g := RMAT(RMATConfig{Vertices: 4000, Edges: 32000, Seed: 3})
	sys, err := New(g, SSSP(0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 120, InsertFrac: 0.7, Seed: 9})
	for i := 0; i < 3; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestMetricsConservation asserts the attribution contract: at operation
// boundaries the per-worker series sum exactly to the global counters, at
// every parallelism level (sequential work is attributed to worker 0,
// parallel-phase work to the worker that performed it).
func TestMetricsConservation(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			eachFanoutArm(t, p, func(t *testing.T) *System {
				sys := runStream(t, WithTiming(false), WithParallelism(p))
				m := sys.Metrics()
				if len(m.Workers) == 0 {
					t.Fatal("no worker series published")
				}
				var proc, coal, gen, rounds uint64
				for _, w := range m.Workers {
					proc += w.EventsProcessed
					coal += w.EventsCoalesced
					gen += w.EventsGenerated
					rounds += w.Rounds
				}
				tot := m.Totals
				if proc != tot.EventsProcessed {
					t.Errorf("processed: workers sum %d != total %d", proc, tot.EventsProcessed)
				}
				if coal != tot.EventsCoalesced {
					t.Errorf("coalesced: workers sum %d != total %d", coal, tot.EventsCoalesced)
				}
				if gen != tot.EventsGenerated {
					t.Errorf("generated: workers sum %d != total %d", gen, tot.EventsGenerated)
				}
				if rounds != tot.Rounds {
					t.Errorf("rounds: workers sum %d != total %d", rounds, tot.Rounds)
				}
				// A selective kernel runs one compute phase for the initial
				// evaluation and one per batch (the other phase of each batch
				// is the delete recovery), and every compute phase is counted
				// under exactly one mode.
				if got, want := m.ComputePhasesCaller+m.ComputePhasesFanout, 1+m.Batches; got != want {
					t.Errorf("compute phases: caller %d + fanout %d = %d, want %d (of %d phases in all)",
						m.ComputePhasesCaller, m.ComputePhasesFanout, got, want, tot.Phases)
				}
				if p == 1 && m.ComputePhasesFanout != 0 {
					t.Errorf("parallelism 1 fanned out %d phases", m.ComputePhasesFanout)
				}
				if m.SchemaVersion != MetricsSchemaVersion {
					t.Errorf("schema version %d, want %d", m.SchemaVersion, MetricsSchemaVersion)
				}
				if m.Batches != 3 {
					t.Errorf("batches %d, want 3", m.Batches)
				}
				return sys
			})
		})
	}
	// The graph layer accounts for every applied batch as exactly one of a
	// whole-graph re-lay or an in-place application, and only the latter
	// relocates; the registry series and the snapshot read the same tallies.
	t.Run("layout", func(t *testing.T) {
		sys := runStream(t, WithTiming(false))
		prev := sys.Metrics().GraphLayout
		if prev.Relayouts != 1 {
			t.Fatalf("re-lays after the first batches: %d, want 1 (dense → slacked)", prev.Relayouts)
		}
		inPlace := sys.Batches() - 1
		gen := NewStream(StreamConfig{BatchSize: 1000, InsertFrac: 0.8, Seed: 4})
		for i := 0; i < 16; i++ {
			if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
				t.Fatal(err)
			}
			cur := sys.Metrics().GraphLayout
			switch cur.Relayouts - prev.Relayouts {
			case 0:
				inPlace++
			case 1:
				if cur.Relocations != prev.Relocations || cur.DeadSlots != 0 {
					t.Errorf("batch %d re-laid the graph yet relocated %d segments and left %d slots dead",
						i, cur.Relocations-prev.Relocations, cur.DeadSlots)
				}
			default:
				t.Errorf("batch %d: re-lays went %d → %d", i, prev.Relayouts, cur.Relayouts)
			}
			// An in-place batch leaves at most one undo record per update and
			// direction with the version it supersedes, a re-lay none; and a
			// record is rebuilt at most once, when somebody reads it.
			if wrote := cur.UndoRecords - prev.UndoRecords; wrote > 2000 || (wrote == 0) != (cur.Relayouts > prev.Relayouts) {
				t.Errorf("batch %d: %d undo records written, re-lays %d → %d", i, wrote, prev.Relayouts, cur.Relayouts)
			}
			if cur.UndoRebuilt < prev.UndoRebuilt || cur.UndoRebuilt > cur.UndoRecords {
				t.Errorf("batch %d: %d segments rebuilt (was %d) from %d undo records", i, cur.UndoRebuilt, prev.UndoRebuilt, cur.UndoRecords)
			}
			if cur.EdgeSlots < 2*sys.Graph().NumEdges()+cur.DeadSlots {
				t.Errorf("batch %d: %d slots cannot hold %d edges twice plus %d dead slots",
					i, cur.EdgeSlots, sys.Graph().NumEdges(), cur.DeadSlots)
			}
			prev = cur
		}
		if inPlace+prev.Relayouts != sys.Batches() {
			t.Errorf("in place %d + re-lays %d != batches %d", inPlace, prev.Relayouts, sys.Batches())
		}
		if prev.Relocations == 0 || prev.Relayouts < 2 || prev.UndoRebuilt == 0 {
			t.Errorf("run too tame to account for anything: %d relocations, %d re-lays, %d undo rebuilds",
				prev.Relocations, prev.Relayouts, prev.UndoRebuilt)
		}
		for name, want := range map[string]float64{
			"jetstream_graph_relocations_total":   float64(prev.Relocations),
			"jetstream_graph_relayouts_total":     float64(prev.Relayouts),
			"jetstream_graph_undo_records_total":  float64(prev.UndoRecords),
			"jetstream_graph_undo_rebuilds_total": float64(prev.UndoRebuilt),
			"jetstream_graph_edge_slots":          float64(prev.EdgeSlots),
			"jetstream_graph_dead_slots":          float64(prev.DeadSlots),
		} {
			if got, ok := sys.reg.Get(name); !ok || got != want {
				t.Errorf("%s = %v (registered %v), snapshot says %v", name, got, ok, want)
			}
		}
	})
}

// TestMetricsConservationWithTiming covers the sequential timed path (all
// work attributed to worker 0) and checks the DRAM channel series appear.
func TestMetricsConservationWithTiming(t *testing.T) {
	sys := runStream(t)
	m := sys.Metrics()
	if len(m.Workers) != 1 {
		t.Fatalf("timed sequential run published %d worker series, want 1", len(m.Workers))
	}
	if got, want := m.Workers[0].EventsProcessed, m.Totals.EventsProcessed; got != want {
		t.Errorf("worker 0 processed %d != total %d", got, want)
	}
	if len(m.Channels) == 0 {
		t.Fatal("timing model on but no DRAM channel series")
	}
	var acc uint64
	for _, c := range m.Channels {
		acc += c.Accesses
	}
	if acc == 0 {
		t.Error("DRAM channel series present but zero accesses recorded")
	}
	if m.BatchLatency.Count != 3 { // one observation per applied batch
		t.Errorf("batch latency count %d, want 3", m.BatchLatency.Count)
	}
}

// TestMetricsHandlerScrape scrapes the Prometheus endpoint after streaming
// and cross-checks the exported series against TotalStats — the acceptance
// criterion that `curl :addr/metrics` returns per-worker series summing to
// the global counters.
func TestMetricsHandlerScrape(t *testing.T) {
	sys := runStream(t, WithTiming(false), WithParallelism(4))
	srv := httptest.NewServer(sys.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	var proc uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "jetstream_worker_events_processed_total{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		proc += uint64(v)
	}
	if tot := sys.TotalStats().EventsProcessed; proc != tot {
		t.Errorf("scraped worker processed sum %d != TotalStats %d", proc, tot)
	}
	for _, want := range []string{
		"# TYPE jetstream_worker_events_processed_total counter",
		"# TYPE jetstream_batch_latency_ns histogram",
		"jetstream_batches_total 3",
		"jetstream_queue_live_events",
		`jetstream_compute_phases_total{mode="caller"}`,
		`jetstream_compute_phases_total{mode="fanout"}`,
		`jetstream_worker_idle_spins_total{worker="0"}`,
		"jetstream_graph_relocations_total",
		"jetstream_graph_relayouts_total 1",
		"jetstream_graph_undo_records_total",
		"jetstream_graph_undo_rebuilds_total",
		"jetstream_graph_edge_slots",
		"jetstream_graph_dead_slots 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestExpvarExport checks the single-var JSON export round-trips.
func TestExpvarExport(t *testing.T) {
	sys := runStream(t, WithTiming(false))
	var m map[string]float64
	if err := json.Unmarshal([]byte(sys.Expvar().String()), &m); err != nil {
		t.Fatalf("expvar output is not a flat JSON object: %v", err)
	}
	if m["jetstream_batches_total"] != 3 {
		t.Errorf("expvar jetstream_batches_total = %v, want 3", m["jetstream_batches_total"])
	}
}

// TestWithObserver checks the streaming trace callback sees the batch
// lifecycle with ordered sequence numbers.
func TestWithObserver(t *testing.T) {
	var mu sync.Mutex
	counts := map[TraceKind]int{}
	obs := ObserverFunc(func(e TraceEvent) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	})
	runStream(t, WithTiming(false), WithObserver(obs))
	mu.Lock()
	defer mu.Unlock()
	if counts[TraceBatchStart] != 3 || counts[TraceBatchEnd] != 3 {
		t.Errorf("batch traces start=%d end=%d, want 3/3", counts[TraceBatchStart], counts[TraceBatchEnd])
	}
	if counts[TracePhaseStart] == 0 || counts[TracePhaseStart] != counts[TracePhaseEnd] {
		t.Errorf("phase traces start=%d end=%d, want equal and nonzero",
			counts[TracePhaseStart], counts[TracePhaseEnd])
	}
}

// TestErrConfigConflict pins the typed error for incompatible options and
// that the previously-working combinations still construct.
func TestErrConfigConflict(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 100, Edges: 400, Seed: 1})
	if _, err := New(g, SSSP(0), WithParallelism(4)); !errors.Is(err, ErrConfigConflict) {
		t.Errorf("parallelism with timing: got %v, want ErrConfigConflict", err)
	}
	if _, err := New(g, SSSP(0), WithTiming(false), WithParallelism(4), WithSlices(2)); !errors.Is(err, ErrConfigConflict) {
		t.Errorf("parallelism with slices: got %v, want ErrConfigConflict", err)
	}
	if _, err := New(g, SSSP(0), WithTiming(false), WithParallelism(4)); err != nil {
		t.Errorf("parallelism with timing off should work: %v", err)
	}
	if _, err := New(g, SSSP(0), WithParallelism(1)); err != nil {
		t.Errorf("parallelism 1 with timing should work: %v", err)
	}
	if _, err := New(g, SSSP(0), WithSlices(2)); err != nil {
		t.Errorf("slices alone should work: %v", err)
	}
}

// TestNewAlgorithm pins the spec constructor and the deprecated wrapper's
// equivalence.
func TestNewAlgorithm(t *testing.T) {
	for _, name := range []string{"sssp", "sswp", "bfs", "cc", "pagerank", "adsorption"} {
		a, err := NewAlgorithm(AlgorithmSpec{Name: name, Root: 2, Eps: 1e-6})
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		old, err := NewAlgorithm(AlgorithmSpec{Name: name, Root: 2, Eps: 1e-6})
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		if a.Name() != old.Name() {
			t.Errorf("%q: spec and positional constructors disagree: %q vs %q", name, a.Name(), old.Name())
		}
	}
	if _, err := NewAlgorithm(AlgorithmSpec{Name: "nope"}); err == nil {
		t.Error("unknown kernel name accepted")
	}
}
