package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"jetstream"
	"jetstream/internal/algo"
	"jetstream/internal/core"
	"jetstream/internal/graph"
	"jetstream/internal/service"
)

// coldSamples is how many graph versions per kernel get a cold-start
// evaluation, evenly spaced over the run, besides the initial graph.
const coldSamples = 6

// restoreReps is how many times each life of the library workload restores
// its checkpoints; recover_s reports the median over all of them.
const restoreReps = 9

// libraryStateReads is how many state copies one life of the library workload
// times: ten times the daemon workloads' count, because a copy takes a tenth
// of a round trip and the reads should span a comparable stretch of time.
const libraryStateReads = 10 * stateReads

// simTally accumulates one kernel's simulated cycles: incremental cycles over
// every batch, and cold-start cycles on the sampled graph versions.
type simTally struct {
	incrCycles  uint64
	batches     int
	coldCycles  uint64
	coldSamples int
}

// reportSim writes the two simulated metrics with their bases. The speedup
// is what the paper claims: the cycles a cold-start evaluation after every
// batch would have cost (each kernel's mean sampled cold start times its
// batch count) over the cycles the incremental evaluation did cost.
func reportSim(r *result, kernels []simTally) {
	var incr, coldEquivalent float64
	var batches int
	for _, t := range kernels {
		incr += float64(t.incrCycles)
		batches += t.batches
		coldEquivalent += float64(t.coldCycles) / float64(t.coldSamples) * float64(t.batches)
		r.note("sim: %d incremental cycles over %d batches; %d cold-start cycles over %d sampled versions",
			t.incrCycles, t.batches, t.coldCycles, t.coldSamples)
	}
	r.metrics["sim_cycles_per_batch"] = incr / float64(batches)
	r.metrics["sim_speedup_x"] = coldEquivalent / incr
	r.note("sim: simulated cycles of an unvalidated model — the repository holds no hardware reference to state an error against")
}

// coldStart evaluates the query from scratch, cycle model on, over a copy of
// the given edges and returns the simulated cycles.
func coldStart(n int, edges []graph.Edge, alg jetstream.Algorithm, cfg jetstream.Config) (uint64, error) {
	g, err := graph.Build(n, edges)
	if err != nil {
		return 0, err
	}
	sys, err := jetstream.New(g, alg, cfg.Options()...)
	if err != nil {
		return 0, err
	}
	return sys.RunInitial().Cycles, nil
}

// simConfig is the library configuration of a simulated tenant: the cycle
// model on, which forces the engine sequential.
var simConfig = jetstream.Config{Timing: true, Parallelism: 1}

// simSeed is the seed of the stream simSide simulates.
const simSeed = 1

// simSide gives a daemon workload its simulated face: what the modelled
// accelerator takes for n batches of the workload's first tenant, next to a
// cold start on the first and last of those graph versions. The stream is
// generated from simSeed, not from the run's seed: simulated cycles repeat
// exactly for one stream, so a frozen stream turns these two metrics into an
// exact fingerprint of the model that any two runs, or two commits, can
// compare digit for digit, where a per-seed stream of this length would move
// by a quarter from seed to seed.
func simSide(spec tenantSpec, n int) (simTally, error) {
	var t simTally
	in, err := prepareTenant(spec, simSeed, 0, n, 0, false)
	if err != nil {
		return t, err
	}
	g, err := in.req.Graph.Build()
	if err != nil {
		return t, err
	}
	cfg := simConfig
	cfg.WindowTTL = in.spec.config.WindowTTL
	sys, err := jetstream.New(g, in.alg, cfg.Options()...)
	if err != nil {
		return t, err
	}
	t.coldCycles, t.coldSamples = sys.RunInitial().Cycles, 1
	for _, b := range in.batches {
		res, err := sys.ApplyBatch(b)
		if err != nil {
			return t, err
		}
		t.incrCycles += res.Cycles
		t.batches++
	}
	final := sys.Graph()
	cold, err := coldStart(final.NumVertices(), final.Edges(), in.alg, simConfig)
	if err != nil {
		return t, err
	}
	t.coldCycles += cold
	t.coldSamples++
	return t, nil
}

// simTenant is one kernel of the sim-timing workload mid-run.
type simTenant struct {
	in      *tenantInput
	sys     *jetstream.System
	next    int
	results []jetstream.Result // per applied batch, from batch 1
	tally   simTally
	// versions are the sampled graph versions awaiting their cold start,
	// one every coldEvery batches.
	coldEvery int
	versions  [][]graph.Edge
}

// setUp builds the System, evaluates the initial graph (the first cold-start
// sample) and applies the warm-up batches.
func (s *simTenant) setUp(warmup int) error {
	g, err := s.in.req.Graph.Build()
	if err != nil {
		return err
	}
	sys, err := jetstream.New(g, s.in.alg, s.in.spec.config.Options()...)
	if err != nil {
		return err
	}
	s.sys, s.next, s.results, s.versions = sys, 0, nil, nil
	s.tally = simTally{coldCycles: sys.RunInitial().Cycles, coldSamples: 1}
	for i := 0; i < warmup; i++ {
		if err := s.apply(); err != nil {
			return err
		}
	}
	return nil
}

// apply feeds the next batch and books its cycles.
func (s *simTenant) apply() error {
	res, err := s.sys.ApplyBatch(s.in.batches[s.next])
	s.next++
	if err != nil {
		return err
	}
	s.results = append(s.results, res)
	s.tally.incrCycles += res.Cycles
	s.tally.batches++
	if s.next%s.coldEvery == 0 {
		s.versions = append(s.versions, s.sys.Graph().Edges())
	}
	return nil
}

// runSim runs the sim-timing workload: the library with the cycle model on,
// one goroutine, first one kernel then the other, opt.lives lives on identical
// inputs and every timing the median over them. The lives double as the
// determinism gate: every batch of every later life must report the cycles
// and counters it reported in the first.
func runSim(w workload, opt runOptions) (*result, error) {
	r := newResult(w.name)
	pl := planFor(w, opt.seconds, opt.lives)
	genStart := time.Now()
	ins, err := prepareTenants(w, opt.seed, pl.totals(w), false, opt.corruptRef)
	if err != nil {
		return nil, err
	}
	tenants := make([]*simTenant, len(ins))
	for i, in := range ins {
		tenants[i] = &simTenant{in: in, coldEvery: max(1, len(in.batches)/coldSamples)}
	}
	genTime := time.Since(genStart)

	check := &phaseStats{}
	var lives []*life
	first := make([][]jetstream.Result, len(tenants))
	cal := newCalibrator(opt.probeTime)
	for rep := 0; rep < opt.lives; rep++ {
		lf := &life{}
		lives = append(lives, lf)
		t := time.Now()
		for _, s := range tenants {
			if err := s.setUp(w.warmup); err != nil {
				return nil, err
			}
		}
		lf.setup = time.Since(t).Seconds()

		probes := []float64{cal.probe()}
		// Closed phase: the next batch as soon as the previous one returns.
		closed := &phaseStats{}
		var typical float64 // seconds the kernels take one after another at their typical rates
		for k, s := range tenants {
			var lat []time.Duration
			for i := 0; i < pl.closed[k]; i++ {
				t := time.Now()
				err := s.apply()
				lat = append(lat, time.Since(t))
				closed.attempted++
				if err != nil {
					closed.fail(err)
				}
			}
			typical += float64(len(lat)) / median(sliceRates(lat))
		}
		r.count(closed)
		lf.rate = float64(closed.attempted) / typical

		probes = append(probes, cal.probe())
		// Paced phase: the same calls on the frozen schedule.
		lf.paced = &phaseStats{}
		for k, s := range tenants {
			lf.paced.merge(pacedLibrary(s, k, pl.paced[k]))
		}
		r.count(lf.paced)

		probes = append(probes, cal.probe())
		// State reads: the copy a library consumer takes, with the CRC the
		// wire form carries.
		var lat []time.Duration
		for i := 0; i < libraryStateReads; i++ {
			t := time.Now()
			service.EncodeState(tenants[i%len(tenants)].sys.State())
			lat = append(lat, time.Since(t))
		}
		lf.readMS = median(millis(lat))

		// Recovery: checkpoint every kernel, then restore it from the bytes.
		var ckpts []*bytes.Buffer
		for _, s := range tenants {
			var buf bytes.Buffer
			if err := s.sys.Checkpoint(&buf); err != nil {
				return nil, err
			}
			ckpts = append(ckpts, &buf)
		}
		restored := make([]*jetstream.System, len(tenants))
		var restores []float64
		for drill := 0; drill < restoreReps; drill++ {
			t := time.Now()
			for i, buf := range ckpts {
				sys, err := jetstream.Restore(bytes.NewReader(buf.Bytes()))
				check.attempted++
				if err != nil {
					check.fail(fmt.Errorf("%s: restore: %w", tenants[i].in.spec.name, err))
					continue
				}
				restored[i] = sys
			}
			restores = append(restores, time.Since(t).Seconds())
		}
		lf.recover = median(restores)
		lf.speed = speedOf(append(probes, cal.probe()))

		// Correctness: selective kernels bitwise against the sequential
		// solver, accumulative ones inside core.Tolerance, before and after
		// the restore; and every batch as simulated in the first life.
		for i, s := range tenants {
			for _, sys := range []*jetstream.System{s.sys, restored[i]} {
				check.attempted++
				if sys == nil {
					check.fail(fmt.Errorf("%s: no restored system", s.in.spec.name))
					continue
				}
				if err := checkLibraryState(s.in, sys); err != nil {
					check.fail(err)
				}
			}
			if rep == 0 {
				first[i] = s.results
				continue
			}
			check.attempted++
			if err := sameResults(s.in.spec.name, first[i], s.results); err != nil {
				check.fail(err)
			}
		}
	}
	r.count(check)

	reportLives(r, lives, genTime.Seconds(), len(tenants),
		fmt.Sprintf("New, RunInitial, %d warm-up batches, both kernels", w.warmup),
		fmt.Sprintf("a life's median of %d times Restore of both kernels' checkpoints taken after the last batch", restoreReps),
		fmt.Sprintf("host batches/s on one goroutine, each kernel at its median rate over %d slices", rateSlices),
		fmt.Sprintf("%d State() copies with checksum per life", libraryStateReads))

	var tallies []simTally
	for _, s := range tenants {
		for _, edges := range s.versions {
			cold, err := coldStart(s.in.spec.vertices, edges, s.in.alg, s.in.spec.config)
			if err != nil {
				return nil, err
			}
			s.tally.coldCycles += cold
			s.tally.coldSamples++
		}
		tallies = append(tallies, s.tally)
	}
	reportSim(r, tallies)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.metrics["peak_rss_mb"] = rss
	return r, nil
}

// pacedLibrary is one kernel's paced phase: n ApplyBatch calls on the
// kernel's frozen schedule.
func pacedLibrary(s *simTenant, idx, n int) *phaseStats {
	interval := time.Duration(float64(time.Second) / s.in.spec.pacedRate)
	ps := runSchedule(wallClock{}, time.Now().Add(time.Millisecond), interval, n, func(int) error { return s.apply() })
	for i := 0; i < n; i++ {
		ps.who = append(ps.who, idx)
	}
	return ps
}

// checkLibraryState compares a System's state with the tenant's reference.
func checkLibraryState(in *tenantInput, sys *jetstream.System) error {
	if in.alg.Class() == algo.Selective {
		if !bitwiseEqual(sys.State(), in.ref) {
			return fmt.Errorf("%s: state is not bitwise the sequential reference", in.spec.name)
		}
		return nil
	}
	tol := core.Tolerance(in.alg, sys.Graph().NumEdges(), int(sys.Batches()))
	if dev := sys.Verify(); !(dev <= tol) {
		return fmt.Errorf("%s: deviates %g from the reference solve, tolerance %g", in.spec.name, dev, tol)
	}
	return nil
}

// sameResults requires a later life to have reported, batch for batch, the
// cycles and counters of the first: a deterministic simulator repeats exactly.
func sameResults(name string, first, again []jetstream.Result) error {
	if len(first) != len(again) {
		return fmt.Errorf("%s: %d batches in the first life, %d in a later one", name, len(first), len(again))
	}
	for i := range first {
		if again[i].Cycles != first[i].Cycles || again[i].Stats != first[i].Stats {
			return fmt.Errorf("%s: batch %d took %d cycles in a later life, %d in the first: simulated statistics are not repeatable",
				name, i+1, again[i].Cycles, first[i].Cycles)
		}
	}
	return nil
}
