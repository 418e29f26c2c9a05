package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runOptions are the knobs of one run.
type runOptions struct {
	seed    int64
	seconds float64
	// lives is how many times the system is set up, drilled and measured in
	// one run; every metric is the median over the lives. One life's speed
	// differs from the next one's by a tenth on the reference box for reasons
	// the code under test does not control (where the heap landed, what the
	// box's other tenants were doing for those seconds), so one long life
	// would report that draw; several short ones report their middle.
	lives int
	// probeTime is how long each of a life's four speed probes runs.
	probeTime time.Duration
	// simBatches is how many batches of the first tenant an HTTP workload
	// also simulates with the cycle model on.
	simBatches int
	// traceBatches is how many batches per tenant the traced run replays.
	traceBatches int
	// corruptRef flips the reference state, to prove the gate trips.
	corruptRef bool
	// daemonBin is the built jetstreamd.
	daemonBin string
}

// setUpDaemon starts a daemon on a fresh data directory, creates every
// tenant and sends the warm-up batches; the first batch of each tenant runs
// its initial evaluation.
func setUpDaemon(ctx context.Context, w workload, opt runOptions, ins []*tenantInput, dataDir string) (*daemon, []*lane, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx, opt.daemonBin, dataDir, addr)
	if err != nil {
		return nil, nil, err
	}
	lanes := newLanes(d.url(""), w.conns, ins)
	for _, in := range ins {
		if err := lanes[0].c.do("POST", "/v1/tenants", in.createBody, nil); err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("create %s: %w", in.spec.name, err)
		}
	}
	if warm := runClosed(lanes, w.warmup); warm.failed > 0 {
		d.kill()
		return nil, nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return d, lanes, nil
}

func closeLanes(lanes []*lane) {
	for _, l := range lanes {
		l.c.close()
	}
}

// crashAndRecover ends the daemon the way the workload ends — kill -9, or
// SIGTERM for a graceful workload — restarts it on the same data directory
// and address, and returns the restarted daemon and the time from exec until
// it was healthy and listed every tenant.
func crashAndRecover(ctx context.Context, w workload, opt runOptions, d *daemon, tenants int, check *phaseStats) (*daemon, time.Duration, error) {
	how := w.ending()
	if w.graceful {
		if err := d.terminate(); err != nil {
			d.kill()
			return nil, 0, err
		}
	} else {
		d.kill()
	}
	start := time.Now()
	restarted, err := startDaemon(ctx, opt.daemonBin, d.dataDir, d.addr)
	if err != nil {
		return nil, 0, fmt.Errorf("restart after %s: %w", how, err)
	}
	names, err := restarted.tenants()
	took := time.Since(start)
	check.attempted++
	switch {
	case err != nil:
		check.fail(fmt.Errorf("after %s and restart: listing tenants: %w", how, err))
	case len(names) != tenants:
		check.fail(fmt.Errorf("after %s and restart the daemon lists %d of %d tenants", how, len(names), tenants))
	}
	return restarted, took, nil
}

// ending names how the workload's daemon goes down before recovery.
func (w workload) ending() string {
	if w.graceful {
		return "SIGTERM"
	}
	return "kill -9"
}

// life is what one life measured, raw: speed is the box's speed during the
// life relative to nominal (see calib.go), which reportLives scales by.
type life struct {
	setup, recover float64     // seconds
	rate           float64     // closed phase, batches/s
	paced          *phaseStats // paced phase samples
	readMS         float64     // median state read
	rssMB          float64
	speed          float64
}

// liveOnce is one life of a daemon workload: set-up on a fresh data
// directory; a recovery drill — the daemon is brought down as soon as the
// warm-up batches are acknowledged, restarted, timed, and must come back with
// every one of them; then, on the recovered daemon, the closed phase, the
// paced phase, the state reads and the bitwise gate. Operations and failures
// are booked in r.
func liveOnce(ctx context.Context, w workload, opt runOptions, ins []*tenantInput, pl plan, dataDir string, r *result, cal *calibrator) (*life, error) {
	lf := &life{}
	check := &phaseStats{}
	defer func() { r.count(check) }()
	t := time.Now()
	d, lanes, err := setUpDaemon(ctx, w, opt, ins, dataDir)
	if err != nil {
		return nil, err
	}
	lf.setup = time.Since(t).Seconds()
	defer closeLanes(lanes)
	closeLanes(lanes) // the connections die with the daemon; the lanes reconnect

	d, took, err := crashAndRecover(ctx, w, opt, d, len(ins), check)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	lf.recover = took.Seconds()
	reader := lanes[0].c
	checkTenants(reader, ins, func(in *tenantInput) ([]float64, int) { return in.refWarm, w.warmup }, check,
		"after "+w.ending()+" and recovery")

	probes := []float64{cal.probe()}
	closed := runClosed(lanes, pl.closed[0])
	r.count(closed)
	lf.rate = closed.typicalRate()
	probes = append(probes, cal.probe())
	lf.paced = runPaced(lanes, pl.paced[0], w.pacedRate)
	r.count(lf.paced)
	probes = append(probes, cal.probe())

	// State reads beside the write path, then the bitwise gate.
	reads := &phaseStats{}
	for i := 0; i < stateReads; i++ {
		t := time.Now()
		_, _, err := fetchState(reader, ins[i%len(ins)].spec.name)
		reads.lat = append(reads.lat, time.Since(t))
		reads.attempted++
		if err != nil {
			reads.fail(err)
		}
	}
	r.count(reads)
	lf.readMS = median(millis(reads.lat))
	lf.speed = speedOf(append(probes, cal.probe()))
	checkTenants(reader, ins, func(in *tenantInput) ([]float64, int) { return in.ref, len(in.batches) }, check, "after the paced phase")
	lf.rssMB, err = d.peakRSSMB()
	return lf, err
}

// stateReads is how many state round trips one life times.
const stateReads = 48

// reportLives writes the six timing metrics of a run from its lives: each is
// the median over the lives of the life's figure at reference speed — a time
// multiplied, a rate divided, by the box's speed during that life. The raw
// figures go into the notes beside them, with what each one timed.
func reportLives(r *result, lives []*life, genSeconds float64, tenants int, setupWhat, recoverWhat, rateWhat, readWhat string) {
	raw := func(f func(*life) float64) []float64 {
		out := make([]float64, len(lives))
		for i, lf := range lives {
			out[i] = f(lf)
		}
		return out
	}
	atRef := func(f func(*life) float64, power float64) float64 {
		return median(raw(func(lf *life) float64 { return f(lf) * math.Pow(lf.speed, power) }))
	}
	speeds := raw(func(lf *life) float64 { return lf.speed })
	r.note("box speed during the %d lives %.3f x nominal; every timing is the median over the lives of the life's figure at reference speed (time x speed, rate / speed); raw figures below",
		len(lives), speeds)

	setup := func(lf *life) float64 { return lf.setup }
	r.metrics["setup_s"] = genSeconds*median(speeds) + atRef(setup, 1)
	r.note("setup_s: %.3f s generating inputs and references + set-ups %.3f s (%s)", genSeconds, raw(setup), setupWhat)

	recov := func(lf *life) float64 { return lf.recover }
	r.metrics["recover_s"] = atRef(recov, 1)
	r.note("recover_s: %.4f s — %s", raw(recov), recoverWhat)

	rate := func(lf *life) float64 { return lf.rate }
	r.metrics["batches_per_s"] = atRef(rate, -1)
	r.note("batches_per_s: closed phase, %.1f batches/s; %s", raw(rate), rateWhat)

	reportPaced(r, lives, tenants)

	read := func(lf *life) float64 { return lf.readMS }
	r.metrics["state_read_ms"] = atRef(read, 1)
	r.note("state_read_ms: medians %.4f ms of %s", raw(read), readWhat)
}

// runHTTP runs one daemon workload end to end: opt.lives lives on identical
// inputs, every metric the median over them.
func runHTTP(ctx context.Context, w workload, opt runOptions) (*result, error) {
	if err := checkConns(w); err != nil {
		return nil, err
	}
	r := newResult(w.name)
	pl := planFor(w, opt.seconds, opt.lives)

	genStart := time.Now()
	ins, err := prepareTenants(w, opt.seed, pl.totals(w), true, opt.corruptRef)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(genStart)

	dataDir, err := filepath.Abs(filepath.Join(outDir, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dataDir) }()

	cal := newCalibrator(opt.probeTime)
	var lives []*life
	for rep := 0; rep < opt.lives; rep++ {
		lf, err := liveOnce(ctx, w, opt, ins, pl, dataDir, r, cal)
		if err != nil {
			return nil, err
		}
		lives = append(lives, lf)
	}
	reportLives(r, lives, genTime.Seconds(), len(ins),
		fmt.Sprintf("start daemon, create %d tenants, initial evaluation, %d warm-up batches each; data dir on %s", len(ins), w.warmup, fsType(dataDir)),
		fmt.Sprintf("%s once the %d warm-up batches per tenant are acked, exec -> healthy with every tenant listed, then every state bitwise the reference; the life goes on on the recovered daemon", w.ending(), w.warmup),
		fmt.Sprintf("a life's rate is the sum of each of %d connections' median rate over %d slices", w.conns, rateSlices),
		fmt.Sprintf("%d GET state round trips per life with decode and CRC check", stateReads))
	rss := make([]float64, len(lives))
	for i, lf := range lives {
		rss[i] = lf.rssMB
	}
	r.metrics["peak_rss_mb"] = median(rss)

	tally, err := simSide(w.tenants[0], opt.simBatches)
	if err != nil {
		return nil, err
	}
	reportSim(r, []simTally{tally})
	return r, nil
}

// runWorkload dispatches on the workload kind.
func runWorkload(ctx context.Context, w workload, opt runOptions) (*result, error) {
	if w.library {
		return runSim(w, opt)
	}
	return runHTTP(ctx, w, opt)
}
