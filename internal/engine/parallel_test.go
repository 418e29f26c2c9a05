package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"jetstream/internal/algo"
	"jetstream/internal/event"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/stats"
)

func parallelConfig(p int) Config {
	cfg := DefaultConfig()
	cfg.Timing = false
	cfg.Parallelism = p
	return cfg
}

// fanoutArms are the two ways the p>1 tests below run: with the shipped
// frontier threshold — under which these 400-vertex graphs never leave the
// caller — and with every compute phase forced onto the PE workers. The hook
// waives the core-count condition in both, so the arms mean the same thing
// on a 2-core box as on a 64-core one.
var fanoutArms = [...]struct {
	name      string
	threshold int
}{{"default", fanoutMinFrontier}, {"fanout", 0}}

// observed attaches a private registry so a test can read per-worker totals
// and the caller/fan-out phase split.
func observed(e *Engine) *Engine {
	e.SetObs(NewObs(nil, nil))
	return e
}

// requireFannedOut fails unless workers other than 0 processed events, so a
// forced arm cannot silently test the sequential drain.
func requireFannedOut(t *testing.T, e *Engine) {
	t.Helper()
	var others uint64
	for _, w := range e.Obs().WorkerSnapshots()[1:] {
		others += w.Processed
	}
	if _, fanout := e.Obs().ComputePhases(); fanout == 0 || others == 0 {
		t.Fatalf("forced fan-out never reached the PE workers: %d fan-out phases, %d events on workers 1..", fanout, others)
	}
}

// TestParallelStaticMatchesSequential is the engine-level differential: a
// from-scratch convergence at parallelism 8 against the same run at 1 —
// bitwise for selective kernels, within the truncation bound for
// accumulative ones.
func TestParallelStaticMatchesSequential(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			a := makeAlg(t, name)
			g := testGraphFor(a, 42)
			seq := New(g, a, parallelConfig(1), nil)
			seq.RunToConvergence()
			for _, arm := range fanoutArms {
				t.Run(arm.name, func(t *testing.T) {
					defer SetFanoutThresholdForTest(arm.threshold)()
					par := observed(New(g, makeAlg(t, name), parallelConfig(8), nil))
					par.RunToConvergence()
					par.FlushObs()
					if arm.threshold == 0 {
						requireFannedOut(t, par)
					}
					d := algo.MaxAbsDiff(seq.State(), par.State())
					if a.Class() == algo.Selective {
						if d != 0 {
							t.Errorf("selective parallel state differs from sequential by %v", d)
						}
					} else if tol := tolFor(a, g); d > tol {
						t.Errorf("accumulative parallel state differs by %v > %v", d, tol)
					}
				})
			}
		})
	}
}

// escalationGraph is large enough that a cascade grown from a single event
// crosses fanoutMinFrontier, so the shipped threshold hands off mid-cascade.
// The caller's rounds do not emit events their targets already dominate, so
// the SSSP frontier peaks at about 2350 live events here.
func escalationGraph(a algo.Algorithm) *graph.CSR {
	g := graph.RMAT(graph.RMATConfig{Vertices: 4 * fanoutMinFrontier, Edges: 32 * fanoutMinFrontier, Seed: 11})
	if algo.NeedsSymmetric(a) {
		g = graph.Symmetrize(g)
	}
	return g
}

// TestEscalationDifferential runs every kernel from scratch at p 2 and 8 with
// the hand-off placed at each point it can fall — before the first round,
// after the first round, wherever the shipped threshold puts it (on a graph
// large enough to cross it mid-cascade), and never — against the p=1 engine:
// bitwise for selective kernels, the truncation bound for accumulative ones.
func TestEscalationDifferential(t *testing.T) {
	arms := []struct {
		name      string
		threshold int
		big       bool
	}{{"first-round", 0, false}, {"second-round", 1, false}, {"default", fanoutMinFrontier, true}, {"never", math.MaxInt, false}}
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			// One (kernel, graph, p=1 reference) per graph size. The large
			// graph runs at a coarser epsilon so the accumulative kernels do
			// not dominate the suite under the race detector.
			type subject struct {
				a   algo.Algorithm
				g   *graph.CSR
				seq *Engine
			}
			subjectFor := func(big bool) subject {
				a := makeAlg(t, name)
				if !big {
					return subject{a: a, g: testGraphFor(a, 42)}
				}
				if a.Class() == algo.Accumulative {
					var err error
					if a, err = algo.New(name, 0, 1e-6); err != nil {
						t.Fatal(err)
					}
				}
				return subject{a: a, g: escalationGraph(a)}
			}
			subjects := map[bool]subject{}
			for _, big := range []bool{false, true} {
				s := subjectFor(big)
				s.seq = New(s.g, s.a, parallelConfig(1), nil)
				s.seq.RunToConvergence()
				subjects[big] = s
			}
			for _, p := range []int{2, 8} {
				for _, arm := range arms {
					t.Run(fmt.Sprintf("p%d/%s", p, arm.name), func(t *testing.T) {
						defer SetFanoutThresholdForTest(arm.threshold)()
						a, g, seq := subjects[arm.big].a, subjects[arm.big].g, subjects[arm.big].seq
						st := &stats.Counters{}
						par := observed(New(g, a, parallelConfig(p), st))
						par.RunToConvergence()
						par.FlushObs()
						caller, fanout := par.Obs().ComputePhases()
						switch arm.name {
						case "first-round", "second-round":
							requireFannedOut(t, par)
						case "never":
							if fanout != 0 || par.run != nil {
								t.Errorf("threshold never: %d phases fanned out, run state built: %v", fanout, par.run != nil)
							}
						}
						if caller+fanout != 1 {
							t.Errorf("one compute phase counted as caller %d + fanout %d", caller, fanout)
						}
						if r := st.EventsUnaccounted(); r != 0 {
							t.Errorf("%d events unaccounted", r)
						}
						var proc uint64
						for _, w := range par.Obs().WorkerSnapshots() {
							proc += w.Processed
						}
						if proc != st.EventsProcessed {
							t.Errorf("per-worker processed sums to %d, total is %d", proc, st.EventsProcessed)
						}
						d := algo.MaxAbsDiff(seq.State(), par.State())
						if a.Class() == algo.Selective {
							if d != 0 {
								t.Errorf("selective state differs from p=1 by %v (want bitwise equal)", d)
							}
						} else if tol := tolFor(a, g); d > tol {
							t.Errorf("accumulative state differs from p=1 by %v > %v", d, tol)
						}
					})
				}
			}
		})
	}
}

// TestFanoutDeterministicAcrossCores pins the superstep contract: at a fixed
// p, a fanned-out run is a function of its input alone. Every kernel at p 2, 4
// and 8, with every phase forced onto the workers, converges from scratch and
// then absorbs one seeded perturbation phase, once each at GOMAXPROCS 1, 2 and
// 8; state bits, dependency fields, counters and the per-worker series must
// come out identical, so goroutine scheduling decides nothing.
func TestFanoutDeterministicAcrossCores(t *testing.T) {
	defer SetFanoutThresholdForTest(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		state   []uint64
		dep     []graph.VertexID
		st      stats.Counters
		workers []WorkerStats
	}
	for _, name := range algo.Names() {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				g := testGraphFor(makeAlg(t, name), 42)
				run := func(procs int) outcome {
					runtime.GOMAXPROCS(procs)
					st := &stats.Counters{}
					e := observed(New(g, makeAlg(t, name), parallelConfig(p), st, WithDependencyTracking()))
					e.RunToConvergence()
					perturb(rand.New(rand.NewSource(5)), 40, e)
					e.RunCompute()
					e.FlushObs()
					requireFannedOut(t, e)
					o := outcome{dep: append([]graph.VertexID(nil), e.Dep()...), st: *st, workers: e.Obs().WorkerSnapshots()}
					for _, x := range e.State() {
						o.state = append(o.state, math.Float64bits(x))
					}
					return o
				}
				want := run(1)
				for _, procs := range []int{2, 8} {
					got := run(procs)
					if got.st != want.st {
						t.Errorf("GOMAXPROCS=%d: counters %+v, at 1 %+v", procs, got.st, want.st)
					}
					if !slices.Equal(got.state, want.state) {
						t.Errorf("GOMAXPROCS=%d: state bits differ from the run at 1", procs)
					}
					if !slices.Equal(got.dep, want.dep) {
						t.Errorf("GOMAXPROCS=%d: dependency fields differ from the run at 1", procs)
					}
					if !slices.Equal(got.workers, want.workers) {
						t.Errorf("GOMAXPROCS=%d: per-worker series %+v, at 1 %+v", procs, got.workers, want.workers)
					}
				}
			})
		}
	}
}

// TestDefaultThresholdEscalatesMidCascade pins that the "default" arm of the
// differential above really is the mid-cascade case: SSSP starts from one
// event, so the phase must have run rounds on the caller (worker 0's residual
// share) before its frontier crossed the threshold and the workers took over.
func TestDefaultThresholdEscalatesMidCascade(t *testing.T) {
	defer SetFanoutThresholdForTest(fanoutMinFrontier)() // shipped frontier, any core count
	a := algo.NewSSSP(0)
	st := &stats.Counters{}
	e := observed(New(escalationGraph(a), a, parallelConfig(8), st))
	e.SeedInitialEvents()
	if n := e.Queue().Len(); n > fanoutThreshold {
		t.Fatalf("phase starts with %d events, already over the threshold", n)
	}
	e.RunCompute()
	if _, fanout := e.Obs().ComputePhases(); fanout != 1 {
		t.Fatalf("phase did not fan out (frontier never exceeded %d?)", fanoutThreshold)
	}
	var onWorkers uint64
	for _, w := range e.Obs().WorkerSnapshots() {
		onWorkers += w.Processed
	}
	if onWorkers == 0 || onWorkers >= st.EventsProcessed {
		t.Fatalf("workers processed %d of %d events: no caller-side rounds before the hand-off", onWorkers, st.EventsProcessed)
	}
}

// TestParallelismGates verifies every condition that must force the
// sequential path: an explicit 1, the timing model, slicing, a trace hook,
// and the vertex-count clamp.
func TestParallelismGates(t *testing.T) {
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 3)

	if e := New(g, a, parallelConfig(1), nil); e.parallelism() != 1 {
		t.Error("Parallelism 1 did not gate to sequential")
	}
	if e := New(g, a, parallelConfig(8), nil); e.parallelism() != 8 {
		t.Errorf("plain functional config: parallelism %d, want 8", e.parallelism())
	}

	timed := parallelConfig(8)
	timed.Timing = true
	if e := New(g, a, timed, nil); e.parallelism() != 1 {
		t.Error("timing model did not gate to sequential")
	}

	if e := New(g, a, parallelConfig(8), nil, WithPartition(2)); e.parallelism() != 1 {
		t.Error("slicing did not gate to sequential")
	}

	e := New(g, a, parallelConfig(8), nil)
	e.SetTrace(func(event.Event) {})
	if e.parallelism() != 1 {
		t.Error("trace hook did not gate to sequential")
	}
	e.SetTrace(nil)
	if e.parallelism() != 8 {
		t.Error("removing the trace hook did not restore parallelism")
	}

	tiny := graph.MustBuild(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	if got := New(tiny, a, parallelConfig(8), nil).parallelism(); got != 3 {
		t.Errorf("vertex clamp: parallelism %d on a 3-vertex graph, want 3", got)
	}

	// Ownership is fixed for the engine's life: Repartition only re-slices
	// (and slicing gates to sequential), so it must leave the map alone.
	if owner := e.ownership(8); e.Repartition() != -1 || &e.ownership(8)[0] != &owner[0] {
		t.Error("Repartition on an unsliced engine touched the parallel ownership map")
	}
}

// TestParallelOwnershipCoversAllVertices checks the cached partition is a
// total disjoint assignment and is invalidated when worker count changes.
func TestParallelOwnershipCoversAllVertices(t *testing.T) {
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 5)
	e := New(g, a, parallelConfig(4), nil)
	owner := e.ownership(4)
	if len(owner) != g.NumVertices() {
		t.Fatalf("ownership covers %d vertices, want %d", len(owner), g.NumVertices())
	}
	counts := make([]int, 4)
	for v, o := range owner {
		if o < 0 || o >= 4 {
			t.Fatalf("vertex %d owned by %d, want [0,4)", v, o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("worker %d owns no vertices", i)
		}
	}
	again := e.ownership(4)
	if &again[0] != &owner[0] {
		t.Error("same worker count recomputed the ownership map")
	}
	if reK := e.ownership(2); len(reK) != g.NumVertices() {
		t.Error("re-keyed ownership incomplete")
	} else if e.ownerK != 2 {
		t.Errorf("ownerK = %d after re-key, want 2", e.ownerK)
	}
}

// TestParallelCountersConserveEvents: at quiescence the conservation law
// holds exactly at any parallelism, and the compute-phase identity
// VertexReads == EventsProcessed survives the per-worker merge.
func TestParallelCountersConserveEvents(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, arm := range fanoutArms {
			t.Run(fmt.Sprintf("p%d/%s", p, arm.name), func(t *testing.T) {
				defer SetFanoutThresholdForTest(arm.threshold)()
				a := algo.NewSSSP(0)
				g := testGraphFor(a, 42)
				st := &stats.Counters{}
				e := observed(New(g, a, parallelConfig(p), st))
				e.RunToConvergence()
				e.FlushObs()
				if p > 1 && arm.threshold == 0 {
					requireFannedOut(t, e)
				}
				if r := st.EventsUnaccounted(); r != 0 {
					t.Errorf("%d events unaccounted (generated %d, processed %d, coalesced %d)",
						r, st.EventsGenerated, st.EventsProcessed, st.EventsCoalesced)
				}
				if st.VertexReads != st.EventsProcessed {
					t.Errorf("VertexReads %d != EventsProcessed %d", st.VertexReads, st.EventsProcessed)
				}
				if st.Phases == 0 || st.Rounds == 0 {
					t.Errorf("phases/rounds not counted (%d/%d)", st.Phases, st.Rounds)
				}
				if caller, fanout := e.Obs().ComputePhases(); caller+fanout != st.Phases {
					t.Errorf("compute phases: caller %d + fanout %d != %d phases run", caller, fanout, st.Phases)
				}
			})
		}
	}
}

// TestParallelDependencyTracking: DAP dependency fields must be maintained
// by the owning workers and remain consistent with the converged state —
// every reached vertex records a source whose state plus edge weight
// reproduces it.
func TestParallelDependencyTracking(t *testing.T) {
	defer SetFanoutThresholdForTest(0)()
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 8)
	e := observed(New(g, a, parallelConfig(8), nil, WithDependencyTracking()))
	e.RunToConvergence()
	e.FlushObs()
	requireFannedOut(t, e)
	dep := e.Dep()
	state := e.State()
	for v := range state {
		if v == 0 || state[v] == a.Identity() {
			continue
		}
		src := dep[v]
		if src == event.NoSource {
			t.Fatalf("reached vertex %d has no dependency source", v)
		}
		w, ok := g.HasEdge(src, uint32(v))
		if !ok {
			t.Fatalf("vertex %d depends on %d but no such edge exists", v, src)
		}
		if got := state[src] + w; got != state[v] {
			t.Errorf("vertex %d: dep %d gives %v, state is %v", v, src, got, state[v])
		}
	}
}

// perturb emits k improving events at random reached vertices of both engines
// (the same events, so their fixpoints stay comparable) and returns how many
// it emitted.
func perturb(rng *rand.Rand, k int, engines ...*Engine) int {
	state := engines[0].State()
	n := 0
	for i := 0; i < k; i++ {
		v := graph.VertexID(rng.Intn(len(state)))
		if x := state[v]; x > 0 && !math.IsInf(x, 0) {
			for _, e := range engines {
				e.Emit(event.Event{Target: v, Value: x * 0.9, Source: event.NoSource})
			}
			n++
		}
	}
	return n
}

// TestRunStateReuse drives one p=8 engine through 200 compute phases that
// alternate large and small frontiers, coalescing on and off, forced fan-out
// and the shipped threshold, beside a p=1 engine fed the same events. Anything
// a phase leaves behind in the engine-lifetime state — a stale slot or
// overflow entry, an unreset high-water mark, mail still in an outbox —
// shows up as a state mismatch, an unaccounted event, or one of the explicit
// checks below.
func TestRunStateReuse(t *testing.T) {
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 42)
	seqSt, parSt := &stats.Counters{}, &stats.Counters{}
	seq := New(g, a, parallelConfig(1), seqSt)
	par := observed(New(g, a, parallelConfig(8), parSt))
	seq.RunToConvergence()
	par.RunToConvergence() // stays on the caller: the run state is built by a later phase
	if par.run != nil {
		t.Fatal("a phase below the threshold built the parallel run state")
	}
	rng := rand.New(rand.NewSource(7))
	var fannedSmall int
	for phase := 0; phase < 200; phase++ {
		big := phase%2 == 0
		coalescing := phase%4 < 2
		forced := phase%5 != 0
		k := 2
		if big {
			k = 300
		}
		seq.Queue().SetCoalescing(coalescing)
		par.Queue().SetCoalescing(coalescing)
		emitted := perturb(rng, k, seq, par)
		coalesced := parSt.EventsCoalesced
		seq.RunCompute()
		func() {
			if forced {
				defer SetFanoutThresholdForTest(0)()
			}
			par.RunCompute()
		}()
		if d := algo.MaxAbsDiff(seq.State(), par.State()); d != 0 {
			t.Fatalf("phase %d (big=%v coalescing=%v forced=%v): state differs from p=1 by %v", phase, big, coalescing, forced, d)
		}
		if r := parSt.EventsUnaccounted(); r != 0 {
			t.Fatalf("phase %d: %d events unaccounted", phase, r)
		}
		if n := parSt.EventsCoalesced - coalesced; !coalescing && n != 0 {
			t.Fatalf("phase %d (forced=%v): %d events coalesced with coalescing off", phase, forced, n)
		}
		if par.run == nil {
			continue
		}
		for _, w := range par.run.workers {
			if !w.shard.Empty() {
				t.Fatalf("phase %d: worker %d shard holds %d events after quiescence", phase, w.id, w.shard.Len())
			}
			for d := range w.staging {
				if len(w.staging[d]) != 0 || cap(w.staging[d]) > recycleCap {
					t.Fatalf("phase %d: worker %d kept %d events (capacity %d) of mail for %d", phase, w.id, len(w.staging[d]), cap(w.staging[d]), d)
				}
			}
			// A small forced phase right after a big one: its shard peaks
			// are bounded by its own cascade, not by the big phase's.
			if forced && !big && emitted > 0 && w.shard.HighWater() > g.NumVertices()/4 {
				t.Fatalf("phase %d: worker %d high-water %d survives from an earlier phase", phase, w.id, w.shard.HighWater())
			}
		}
		if forced && !big && emitted > 0 {
			fannedSmall++
		}
	}
	par.FlushObs()
	requireFannedOut(t, par)
	if fannedSmall == 0 {
		t.Fatal("no small phase ran on reused shards")
	}
}

// TestComputePhaseAllocations pins what a steady-state compute phase costs in
// allocations at p=8: nothing when it stays on the caller, and no more than
// the goroutine starts plus a small constant when it fans out.
func TestComputePhaseAllocations(t *testing.T) {
	a := algo.NewSSSP(0)
	g := testGraphFor(a, 42)
	for _, arm := range fanoutArms {
		t.Run(arm.name, func(t *testing.T) {
			defer SetFanoutThresholdForTest(arm.threshold)()
			e := New(g, a, parallelConfig(8), nil)
			e.RunToConvergence()
			rng := rand.New(rand.NewSource(3))
			phase := func() {
				perturb(rng, 8, e)
				e.RunCompute()
			}
			for i := 0; i < 50; i++ { // warm the queue scratch, mail buffers, goroutine free list
				phase()
			}
			allocs := testing.AllocsPerRun(100, phase)
			limit := 0.0
			if arm.threshold == 0 {
				limit = 8 + 4
			}
			if allocs > limit {
				t.Errorf("steady-state compute phase: %.1f allocs, want <= %.0f", allocs, limit)
			}
		})
	}
}

// TestEscalationRule is the truth table of RunCompute's hand-off at
// parallelism 8: a phase leaves the caller iff its frontier exceeds
// fanoutMinFrontier and the engine found at least fanoutMinCores cores; the
// test hook replaces the frontier threshold and waives the core condition.
// Asserted on the series an operator reads, jetstream_compute_phases_total.
func TestEscalationRule(t *testing.T) {
	const noHook = -1
	a := algo.NewSSSP(0)
	g := escalationGraph(a)
	// Seeded events that share a target coalesce, so the live frontier is
	// smaller than the number seeded; each row checks which side it landed on.
	small, big := fanoutMinFrontier/32, 2*fanoutMinFrontier
	rows := []struct {
		frontier, cores, hook int
		fanout                bool
	}{
		{small, 64, noHook, false},
		{big, 64, noHook, true},
		{big, fanoutMinCores, noHook, true},
		{big, fanoutMinCores - 1, noHook, false},
		{big, 2, noHook, false},
		{big, 1, noHook, false},
		{small, 1, 0, true},
		{big, 1, fanoutMinFrontier, true},
		{small, 64, fanoutMinFrontier, false},
		{big, 64, math.MaxInt, false},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("frontier=%d/cores=%d/hook=%d", r.frontier, r.cores, r.hook), func(t *testing.T) {
			s := newBenchSubject(g, a, parallelConfig(8), halve)
			if r.hook != noHook {
				defer SetFanoutThresholdForTest(r.hook)()
			}
			s.e.cores = r.cores
			reg := obs.NewRegistry()
			s.e.SetObs(NewObs(reg, nil))
			s.seed(rand.New(rand.NewSource(3)), r.frontier)
			if n := s.e.Queue().Len(); (n > fanoutMinFrontier) != (r.frontier == big) {
				t.Fatalf("frontier of %d events holds %d live ones: wrong side of %d", r.frontier, n, fanoutMinFrontier)
			}
			s.e.RunCompute()
			caller, _ := reg.Get("jetstream_compute_phases_total", obs.L("mode", "caller"))
			fanout, _ := reg.Get("jetstream_compute_phases_total", obs.L("mode", "fanout"))
			if want := map[bool][2]float64{false: {1, 0}, true: {0, 1}}[r.fanout]; [2]float64{caller, fanout} != want {
				t.Errorf("phases{caller, fanout} = {%v, %v}, want %v", caller, fanout, want)
			}
			if !s.e.Queue().Empty() {
				t.Errorf("phase left %d events queued", s.e.Queue().Len())
			}
		})
	}
}

// TestSingleCoreNeverStartsWorkers pins the serving default (parallelism 8)
// on a one-core process: however large the frontier, the engine finds
// GOMAXPROCS below fanoutMinCores, so no phase builds the PE run state —
// whose workers are the only goroutines a compute phase ever starts.
func TestSingleCoreNeverStartsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := algo.NewSSSP(0)
	e := observed(New(escalationGraph(a), a, parallelConfig(8), nil))
	before := runtime.NumGoroutine()
	e.RunToConvergence() // a cascade that crosses fanoutMinFrontier (TestDefaultThresholdEscalatesMidCascade)
	if caller, fanout := e.Obs().ComputePhases(); caller != 1 || fanout != 0 {
		t.Errorf("phases: caller %d, fanout %d; want 1, 0", caller, fanout)
	}
	if e.run != nil {
		t.Error("PE run state was built on one core")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the phase, %d after", before, after)
	}
}
