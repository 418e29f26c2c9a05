package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"jetstream"
	"jetstream/internal/core"
	"jetstream/internal/graph"
	"jetstream/internal/obs"
	"jetstream/internal/service"
	"jetstream/internal/stats"
	"jetstream/internal/wal"
	"jetstream/internal/window"
)

// span is one timed call into a layer. Spans of one batch share Batch; Parent
// is the span that would have caused this one inside the real program (0 for
// the root). Times are nanoseconds since the trace began, as measured on the
// twin that executed the call — a child does not sit inside its parent's
// interval, because it ran on another twin at another moment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// add records one finished span and returns its id.
func (t *tracer) add(name, tenant string, parent, batch int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Batch: batch, Tenant: tenant, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open reserves a span whose times are filled in by close: the root of a
// batch is measured last but must exist first so children can name it.
func (t *tracer) open(name, tenant string, parent, batch int) int {
	return t.add(name, tenant, parent, batch, t.t0, t.t0)
}

func (t *tracer) close(id int, start, end time.Time) {
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns each span's self time: its duration minus the durations
// of its direct children. A parent whose children sum past it gets a negative
// self time, reported as is — it is named in over, never clamped, because a
// clamped share would hide how far the twins drifted from the real nesting.
func selfTimes(spans []span) (self map[int]int64, over map[int]bool) {
	self = make(map[int]int64, len(spans))
	over = map[int]bool{}
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			over[id] = true
		}
	}
	return self, over
}

// coreConfig mirrors what jetstream.New derives from a wire Config for the
// fields the workloads set, so the core twin runs the engine the System twin
// runs.
func coreConfig(c jetstream.Config) core.Config {
	cfg := core.ConfigWithOpt(core.OptDAP)
	cfg.Engine.Timing = c.Timing
	if c.Parallelism > 0 {
		cfg.Engine.Parallelism = c.Parallelism
	}
	return cfg
}

// twins are one tenant's per-layer copies below the service: each is fed
// exactly the input the layer above it would pass down. The two service-level
// twins (behind HTTP, and called directly) live in traceRun because one
// Service hosts every tenant.
type twins struct {
	in   *tenantInput
	path string

	sys    *jetstream.System // twin 3
	js     *core.JetStream   // twin 4
	g      *graph.CSR        // twin 5
	log    *wal.Log          // twin 6, nil without a WAL
	logReg *obs.Registry
	ring   *window.Ring // twin 7, nil without a window
	epoch  uint64

	initialNS int64 // core twin's RunInitial
	// totals over the measured batches
	counters   stats.Counters
	expired    uint64
	walBytes   uint64
	bodyBytes  []float64
	coreAllocs uint64
	coreBytes  uint64
	graphBytes uint64
	before     jetstream.MetricsSnapshot
}

// newTwins builds twins 3 to 7 for one tenant under dir.
func newTwins(in *tenantInput, dir string) (*twins, error) {
	tw := &twins{in: in, path: "/v1/tenants/" + in.spec.name + "/batch"}
	g0, err := in.req.Graph.Build()
	if err != nil {
		return nil, err
	}
	n, edges := g0.NumVertices(), g0.Edges()

	cfg := in.spec.config
	if cfg.WALDir != "" {
		cfg.WALDir = filepath.Join(dir, "system", in.spec.name)
	}
	if tw.sys, err = jetstream.New(g0, in.alg, cfg.Options()...); err != nil {
		return nil, err
	}
	tw.sys.RunInitial()

	gc, err := graph.Build(n, edges)
	if err != nil {
		return nil, err
	}
	tw.js = core.New(gc, in.alg, coreConfig(in.spec.config), nil)
	t := time.Now()
	tw.js.RunInitial()
	tw.initialNS = time.Since(t).Nanoseconds()

	if tw.g, err = graph.Build(n, edges); err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		pol, err := wal.ParseSyncPolicy(cfg.WALSync)
		if err != nil {
			return nil, err
		}
		tw.log, err = wal.Open(filepath.Join(dir, "wal", in.spec.name), wal.Options{Sync: pol, Interval: cfg.WALSyncInterval})
		if err != nil {
			return nil, err
		}
		tw.log.SetFloor(0)
		tw.logReg = obs.NewRegistry()
		tw.log.Instrument(tw.logReg)
	}
	if cfg.WindowTTL > 0 {
		if tw.ring, err = window.New(cfg.WindowTTL); err != nil {
			return nil, err
		}
		tw.ring.Seed(0, tw.g.Edges())
	}
	return tw, nil
}

func (tw *twins) close() {
	_ = tw.sys.Close()
	if tw.log != nil {
		_ = tw.log.Close()
	}
}

// traceRun is the in-process replay of one workload. The library workload
// has no service in front of it: twins 1 and 2 are absent and system.apply is
// the root span.
type traceRun struct {
	tr      *tracer
	library bool
	twins   []*twins
	svcHTTP *service.Service // twin 1, behind srv
	srv     *httptest.Server
	client  *conn
	svc     *service.Service // twin 2, called directly
	batch   int
}

// step feeds tenant tw its batch i through every twin, leaf layers first and
// the HTTP round trip last, recording one span per call when rec is set.
func (r *traceRun) step(tw *twins, i int, rec bool) error {
	name := tw.in.spec.name
	r.batch++
	id := r.batch
	var root, ingest, sysSpan, coreSpan int
	add := func(span string, parent int, start time.Time) {
		if rec {
			r.tr.add(span, name, parent, id, start, time.Now())
		}
	}
	if rec {
		if !r.library {
			root = r.tr.open("service.http_rtt", name, 0, id)
			ingest = r.tr.open("service.ingest", name, root, id)
		}
		sysSpan = r.tr.open("system.apply", name, ingest, id)
		coreSpan = r.tr.open("core.apply", name, sysSpan, id)
	}

	b := tw.in.batches[i]
	var body []byte
	if !r.library {
		// service.decode: what the handler does with the body.
		body = tw.in.bodies[i]
		t := time.Now()
		var wb service.WireBatch
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wb); err != nil {
			return err
		}
		b = wb.Batch()
		add("service.decode", root, t)
	}

	epoch := tw.epoch + 1
	t := time.Now()
	clean, issues := tw.g.SanitizeBatch(b)
	add("graph.sanitize", sysSpan, t)
	if len(issues) > 0 {
		return fmt.Errorf("%s batch %d: %v", name, epoch, issues[0])
	}
	if tw.log != nil {
		t = time.Now()
		err := tw.log.Append(epoch, clean)
		add("wal.append", sysSpan, t)
		if err != nil {
			return err
		}
	}
	merged := clean
	var expired []window.Key
	if tw.ring != nil {
		t = time.Now()
		expired = tw.ring.Expire(epoch, userDeleteSkip(clean))
		add("window.expire", sysSpan, t)
		var err error
		if merged, err = mergeExpired(tw.g, expired, clean); err != nil {
			return err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	err := tw.js.ApplyBatch(merged)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if rec {
		r.tr.close(coreSpan, t, end)
		tw.coreAllocs += m1.Mallocs - m0.Mallocs
		tw.coreBytes += m1.TotalAlloc - m0.TotalAlloc
	}

	runtime.ReadMemStats(&m0)
	t = time.Now()
	ng, err := tw.g.ApplyDeltaCfg(merged, graph.DefaultDeltaConfig())
	add("graph.apply_delta", coreSpan, t)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	tw.g = ng
	if tw.ring != nil {
		t = time.Now()
		tw.ring.Record(epoch, clean)
		add("window.record", sysSpan, t)
	}
	tw.epoch = epoch

	t = time.Now()
	res, err := tw.sys.ApplyBatch(b)
	end = time.Now()
	if err != nil {
		return err
	}
	if rec {
		r.tr.close(sysSpan, t, end)
	}
	if !r.library {
		t = time.Now()
		sres, err := r.svc.Ingest(name, b)
		end = time.Now()
		if err != nil {
			return err
		}
		if rec {
			r.tr.close(ingest, t, end)
		}

		// service.encode: the response the handler writes.
		t = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(service.BatchResponse{
			Batches: epoch, Cycles: sres.Cycles, Events: sres.Stats.EventsProcessed,
			Repaired: sres.Repaired, Expired: sres.Expired, Issues: sres.Issues,
		}); err != nil {
			return err
		}
		add("service.encode", root, t)

		t = time.Now()
		err = r.client.do("POST", tw.path, body, &service.BatchResponse{})
		end = time.Now()
		if err != nil {
			return err
		}
		if rec {
			r.tr.close(root, t, end)
		}
	}
	if rec {
		tw.counters.Add(&res.Stats)
		tw.expired += uint64(len(expired))
		tw.walBytes += uint64(wal.AppendedSize(clean))
		tw.bodyBytes = append(tw.bodyBytes, float64(len(body)))
		tw.graphBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return nil
}

// newTraceRun builds every twin of the workload under dir.
func newTraceRun(w workload, ins []*tenantInput, dir string) (*traceRun, error) {
	r := &traceRun{tr: &tracer{t0: time.Now()}, library: w.library}
	if w.library {
		for _, in := range ins {
			tw, err := newTwins(in, dir)
			if err != nil {
				return nil, err
			}
			r.twins = append(r.twins, tw)
		}
		return r, nil
	}
	r.svcHTTP = service.New(service.Options{DataDir: filepath.Join(dir, "http")})
	r.srv = httptest.NewServer(r.svcHTTP.Handler())
	r.client = newConn(r.srv.URL)
	r.svc = service.New(service.Options{DataDir: filepath.Join(dir, "direct")})
	for _, in := range ins {
		if err := r.client.do("POST", "/v1/tenants", in.createBody, nil); err != nil {
			return nil, err
		}
		if _, err := r.svc.Create(in.req); err != nil {
			return nil, err
		}
		tw, err := newTwins(in, dir)
		if err != nil {
			return nil, err
		}
		r.twins = append(r.twins, tw)
	}
	return r, nil
}

func (r *traceRun) close() {
	for _, tw := range r.twins {
		tw.close()
	}
	if r.library {
		return
	}
	r.client.close()
	r.srv.Close()
	_ = r.svcHTTP.Shutdown()
	_ = r.svc.Shutdown()
}

// checkTwins requires every twin's end state to equal the System twin's:
// edge count, state vector bits, batch count and log length. A twin that
// drifted would report shares of a different computation, so it fails the run.
func (r *traceRun) checkTwins(ps *phaseStats) {
	for _, tw := range r.twins {
		name := tw.in.spec.name
		want := tw.sys.State()
		edges, batches, walSize := tw.sys.Graph().NumEdges(), tw.sys.Batches(), tw.sys.WALSize()
		expect := func(twin string, ok bool, format string, args ...any) {
			ps.attempted++
			if !ok {
				ps.fail(fmt.Errorf("%s: %s twin drifted from the System twin: %s", name, twin, fmt.Sprintf(format, args...)))
			}
		}
		expect("core", bitwiseEqual(tw.js.State(), want), "state bits differ")
		expect("core", tw.js.Graph().NumEdges() == edges, "%d edges, want %d", tw.js.Graph().NumEdges(), edges)
		expect("graph", tw.g.NumEdges() == edges, "%d edges, want %d", tw.g.NumEdges(), edges)
		if tw.log != nil {
			expect("wal", tw.log.Size() == walSize, "log is %d bytes, want %d", tw.log.Size(), walSize)
		}
		if tw.ring != nil {
			expect("window", tw.ring.Len() == edges, "%d live edges, graph holds %d", tw.ring.Len(), edges)
		}
		if r.library {
			continue
		}
		state, n, err := r.svc.State(name)
		expect("service", err == nil && n == batches && bitwiseEqual(state, want), "state or batch count differs (%v)", err)
		info, err := r.svc.Info(name)
		expect("service", err == nil && info.Edges == edges && info.WALSize == walSize, "edges or log length differ (%v)", err)
		state, n, err = fetchState(r.client, name)
		expect("http", err == nil && n == batches && bitwiseEqual(state, want), "state or batch count differs (%v)", err)
		var hinfo service.TenantInfo
		err = r.client.do("GET", "/v1/tenants/"+name, nil, &hinfo)
		expect("http", err == nil && hinfo.Edges == edges && hinfo.WALSize == walSize, "edges or log length differ (%v)", err)
	}
}

// runTraced is the traced run of one workload: a short untraced pass against
// the real system for the reference round trip and the send lag, then the
// twin replay, the probes, and the layer table.
func runTraced(ctx context.Context, w workload, opt runOptions) (*result, error) {
	res := newResult(w.name)
	n := opt.traceBatches
	counts := make([]int, len(w.tenants))
	for i := range counts {
		counts[i] = w.warmup + n
	}
	ins, err := prepareTenants(w, opt.seed, counts, !w.library, false)
	if err != nil {
		return nil, err
	}
	untraced, err := untracedPass(ctx, w, opt, ins, res)
	if err != nil {
		return nil, err
	}

	dir, err := filepath.Abs(filepath.Join(outDir, "data", fmt.Sprintf("trace-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	r, err := newTraceRun(w, ins, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()

	for i := 0; i < w.warmup+n; i++ {
		for _, tw := range r.twins {
			if i == w.warmup {
				tw.before = tw.sys.Metrics()
			}
			if err := r.step(tw, i, i >= w.warmup); err != nil {
				return nil, err
			}
		}
	}
	check := &phaseStats{}
	r.checkTwins(check)
	res.count(check)

	layerMetrics(res, w, r, untraced)
	if err := probes(res, r.twins[0]); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := r.tr.write(path); err != nil {
		return nil, err
	}
	res.note("%d spans of %d batches written to %s", len(r.tr.spans), r.batch, path)
	return res, nil
}

// untracedPass runs the first traced batches against the real system with no
// twins — the daemon over HTTP, or a plain System for the library workload —
// and returns the median untraced round trip in ns. A short paced phase on
// the same instance gives the load generator's send lag.
func untracedPass(ctx context.Context, w workload, opt runOptions, ins []*tenantInput, res *result) (float64, error) {
	n := opt.traceBatches
	closedN, pacedN := n-n/4, n/4
	if w.library {
		var lat []time.Duration
		paced := &phaseStats{}
		for k, in := range ins {
			s := &simTenant{in: in, coldEvery: len(in.batches) + 1}
			if err := s.setUp(w.warmup); err != nil {
				return 0, err
			}
			for i := 0; i < closedN; i++ {
				t := time.Now()
				if err := s.apply(); err != nil {
					return 0, err
				}
				lat = append(lat, time.Since(t))
			}
			paced.merge(pacedLibrary(s, k, pacedN))
		}
		res.count(paced)
		res.metrics["loadgen.send_lag_p99_ms"] = quantile(millis(paced.lag), 0.99)
		return median(nanos(lat)), nil
	}
	dataDir, err := filepath.Abs(filepath.Join(outDir, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(dataDir) }()
	d, lanes, err := setUpDaemon(ctx, w, opt, ins, dataDir)
	if err != nil {
		return 0, err
	}
	defer d.kill()
	defer closeLanes(lanes)
	closed := runClosed(lanes, closedN)
	res.count(closed)
	paced := runPaced(lanes, pacedN, w.pacedRate)
	res.count(paced)
	res.metrics["loadgen.send_lag_p99_ms"] = quantile(millis(paced.lag), 0.99)
	return median(nanos(closed.lat)), nil
}

// layerMetrics folds the spans and counts into the per-layer metrics and
// prints each layer's share of the traced round trip.
func layerMetrics(res *result, w workload, r *traceRun, untracedRTT float64) {
	self, over := selfTimes(r.tr.spans)
	byName := map[string][]float64{}
	selfByName := map[string][]float64{}
	batches := map[int]bool{}
	overBatches := map[int]bool{}
	for _, s := range r.tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[s.ID]))
		batches[s.Batch] = true
		if over[s.ID] {
			overBatches[s.Batch] = true
		}
	}
	m := res.metrics
	med := func(name string) float64 { return median(byName[name]) }
	selfMed := func(name string) float64 { return median(selfByName[name]) }

	m["service.http_self_ns"] = selfMed("service.http_rtt")
	m["service.decode_ns"] = med("service.decode")
	m["service.encode_ns"] = med("service.encode")
	m["service.ingest_self_ns"] = selfMed("service.ingest")
	m["system.apply_ns"] = med("system.apply")
	m["system.self_ns"] = selfMed("system.apply")
	m["core.apply_ns"] = med("core.apply")
	m["core.compute_ns"] = selfMed("core.apply")
	m["graph.sanitize_ns"] = med("graph.sanitize")
	m["graph.apply_delta_ns"] = med("graph.apply_delta")
	m["wal.append_ns"] = med("wal.append")
	m["window.expire_ns"] = med("window.expire")
	m["window.record_ns"] = med("window.record")

	var c stats.Counters
	var n, expired, walBytes, coreAllocs, coreBytes, graphBytes, syncs, idle, forwarded, highWater uint64
	var bodies, initial, skew, slots, inline, live, stateCopy []float64
	for _, tw := range r.twins {
		c.Add(&tw.counters)
		n += uint64(len(tw.bodyBytes))
		expired += tw.expired
		walBytes += tw.walBytes
		coreAllocs += tw.coreAllocs
		coreBytes += tw.coreBytes
		graphBytes += tw.graphBytes
		bodies = append(bodies, tw.bodyBytes...)
		initial = append(initial, float64(tw.initialNS))
		if tw.logReg != nil {
			syncs += tw.logReg.Counter("jetstream_wal_syncs_total").Load()
		}
		after := tw.sys.Metrics()
		var most, sum float64
		for i, wk := range after.Workers {
			var was jetstream.WorkerMetrics
			if i < len(tw.before.Workers) {
				was = tw.before.Workers[i]
			}
			idle += wk.IdleSpins - was.IdleSpins
			forwarded += wk.EventsForwarded - was.EventsForwarded
			d := float64(wk.EventsProcessed - was.EventsProcessed)
			most, sum = max(most, d), sum+d
		}
		if sum > 0 {
			skew = append(skew, most*float64(len(after.Workers))/sum)
		}
		highWater = max(highWater, after.QueueHighWater)
		g := tw.sys.Graph()
		slots = append(slots, float64(g.EdgeSlots())/float64(max(g.NumEdges(), 1)))
		out, in, nv := g.RepresentationMix()
		inline = append(inline, float64(out+in)/float64(2*max(nv, 1)))
		if tw.ring != nil {
			live = append(live, float64(tw.ring.Len()))
		}
		for i := 0; i < 20; i++ {
			t := time.Now()
			tw.sys.State()
			stateCopy = append(stateCopy, float64(time.Since(t)))
		}
	}
	per := func(x uint64) float64 { return float64(x) / float64(max(n, 1)) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["service.body_bytes"] = median(bodies)
	m["service.throttled"] = 0
	if !r.library {
		m["service.throttled"] = float64(r.svc.Stats().Throttled + r.svcHTTP.Stats().Throttled)
	}
	m["system.state_copy_ns"] = median(stateCopy)
	m["core.events_per_batch"] = per(c.EventsProcessed)
	m["core.phases_per_batch"] = per(c.Phases)
	m["core.vertices_reset_per_batch"] = per(c.VerticesReset)
	m["core.requests_per_batch"] = per(c.RequestsIssued)
	m["core.deletes_discarded_ratio"] = ratio(c.DeletesDiscarded, c.DeletesDiscarded+c.VerticesReset)
	m["core.allocs_per_batch"] = per(coreAllocs)
	m["core.alloc_bytes_per_batch"] = per(coreBytes)
	m["engine.events_per_us"] = 0
	if sum := sumOf(selfByName["core.apply"]); sum > 0 {
		m["engine.events_per_us"] = float64(c.EventsProcessed) / (sum / 1e3)
	}
	m["engine.rounds_per_batch"] = per(c.Rounds)
	m["engine.idle_spins_per_batch"] = per(idle)
	m["engine.forwarded_ratio"] = ratio(forwarded, c.EventsGenerated)
	m["engine.worker_skew"] = median(skew)
	m["engine.initial_ns"] = median(initial)
	m["queue.coalesce_ratio"] = ratio(c.EventsCoalesced, c.EventsGenerated)
	m["queue.high_water"] = float64(highWater)
	m["graph.alloc_bytes_per_batch"] = per(graphBytes)
	m["graph.edge_slots_ratio"] = median(slots)
	m["graph.inline_frac"] = median(inline)
	m["wal.bytes_per_batch"] = 0
	m["wal.syncs_per_batch"] = 0
	if r.twins[0].log != nil {
		m["wal.bytes_per_batch"] = per(walBytes)
		m["wal.syncs_per_batch"] = float64(syncs) / float64(uint64(len(r.twins))*r.twins[0].epoch)
	}
	m["wal.replay_ns_per_record"] = replayCost(r.twins)
	m["window.expired_per_batch"] = per(expired)
	m["window.live_edges"] = median(live)
	m["mem.row_hit_ratio"] = ratio(c.RowHits, c.DRAMAccesses)
	m["mem.utilization"] = c.MemoryUtilization()
	m["mem.dram_accesses_per_batch"] = per(c.DRAMAccesses)
	m["sim.host_ns_per_cycle"] = 0
	if c.Cycles > 0 {
		m["sim.host_ns_per_cycle"] = sumOf(byName["system.apply"]) / float64(c.Cycles)
	}
	root := "service.http_rtt"
	if w.library {
		// No service in front of the library: the System call is the root.
		root = "system.apply"
	}
	m["trace.http_rtt_ratio"] = med(root) / untracedRTT
	m["trace.overcovered_frac"] = float64(len(overBatches)) / float64(max(len(batches), 1))
	res.note("traced %s median %.0f ns vs %.0f ns untraced on the real system (ratio %.2f); %d of %d batches over-covered",
		root, med(root), untracedRTT, m["trace.http_rtt_ratio"], len(overBatches), len(batches))

	// Where the round trip goes: each layer's summed median self time.
	type share struct {
		layer string
		ns    float64
	}
	shares := []share{
		{"service", m["service.http_self_ns"] + m["service.decode_ns"] + m["service.encode_ns"] + m["service.ingest_self_ns"]},
		{"system", m["system.self_ns"]},
		{"core", m["core.compute_ns"]},
		{"graph", m["graph.sanitize_ns"] + m["graph.apply_delta_ns"]},
		{"wal", m["wal.append_ns"]},
		{"window", m["window.expire_ns"] + m["window.record_ns"]},
	}
	if w.library {
		shares = shares[1:] // no service in front of the library
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].ns > shares[b].ns })
	line := "self-time shares of " + root + ":"
	for _, sh := range shares {
		line += fmt.Sprintf(" %s %.1f%%", sh.layer, 100*sh.ns/med(root))
	}
	res.note("%s (core = engine + queue + kernel handlers)", line)
}

// replayCost is the decode-only floor of recovery: wal.Replay over each WAL
// twin's log with a callback that does nothing, in ns per record.
func replayCost(tws []*twins) float64 {
	var ns, records float64
	for _, tw := range tws {
		if tw.log == nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(tw.log.Dir(), wal.LogName))
		if err != nil {
			continue
		}
		t := time.Now()
		st, err := wal.Replay(data, 0, func(wal.Record) error { return nil })
		if err != nil || st.Replayed == 0 {
			continue
		}
		ns += float64(time.Since(t))
		records += float64(st.Replayed)
	}
	if records == 0 {
		return 0
	}
	return ns / records
}
