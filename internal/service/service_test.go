package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jetstream"
	"jetstream/internal/stream"
)

// refTenant pairs a tenant declaration with a private single-threaded
// reference System and a generator, so tests can draw the next valid batch
// and know the exact state the server must reach.
type refTenant struct {
	req CreateRequest
	sys *jetstream.System
	gen *stream.Generator
}

func newRefTenant(t *testing.T, req CreateRequest, seed int64) *refTenant {
	t.Helper()
	alg, err := jetstream.NewAlgorithm(req.Algorithm)
	if err != nil {
		t.Fatalf("algorithm: %v", err)
	}
	g, err := req.Graph.Build()
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	// The reference strips the WAL: same computation, no durability.
	cfg := req.Config
	cfg.WALDir, cfg.WALSync, cfg.WALSyncInterval = "", "", 0
	sys, err := jetstream.New(g, alg, cfg.Options()...)
	if err != nil {
		t.Fatalf("reference system: %v", err)
	}
	sys.RunInitial()
	return &refTenant{
		req: req,
		sys: sys,
		gen: stream.NewGenerator(stream.Config{
			BatchSize:  16,
			InsertFrac: 1,
			Symmetric:  req.Graph.Symmetrize,
			Seed:       seed,
		}),
	}
}

// nextBatch draws the next insert-only batch, applies it to the reference,
// and returns the wire form for the server.
func (r *refTenant) nextBatch(t *testing.T) WireBatch {
	t.Helper()
	b := r.gen.Next(r.sys.Graph())
	if _, err := r.sys.ApplyBatch(b); err != nil {
		t.Fatalf("reference apply: %v", err)
	}
	wb := WireBatch{Inserts: make([]WireEdge, len(b.Inserts))}
	for i, e := range b.Inserts {
		wb.Inserts[i] = WireEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	return wb
}

func (r *refTenant) state() []float64 {
	s := r.sys.State()
	out := make([]float64, len(s))
	copy(out, s)
	return out
}

func mustBitwise(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: vertex %d = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// httpJSON round-trips one request against the test server.
func httpJSON(t *testing.T, srv *httptest.Server, method, path string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func erRequest(name, algoName string, symmetrize bool) CreateRequest {
	spec := jetstream.AlgorithmSpec{Name: algoName}
	return CreateRequest{
		Name:      name,
		Graph:     GraphSpec{Gen: "er", Vertices: 128, Edges: 512, Seed: 11, Symmetrize: symmetrize},
		Algorithm: spec,
		Config:    jetstream.Config{},
	}
}

// TestTenantLifecycle walks the whole arc over HTTP: create, ingest, metrics,
// state, graceful shutdown (writing a checkpoint), recovery in a fresh
// Service, and continued ingest — with the state bitwise-identical to a
// single-threaded reference at every observation point.
func TestTenantLifecycle(t *testing.T) {
	dir := t.TempDir()
	svc := New(Options{DataDir: dir})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := erRequest("alpha", "sssp", false)
	ref := newRefTenant(t, req, 99)

	var info TenantInfo
	if code, _ := httpJSON(t, srv, "POST", "/v1/tenants", req, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.Started {
		t.Fatal("tenant reports started before any batch")
	}

	const k1 = 3
	for i := 0; i < k1; i++ {
		var br BatchResponse
		if code, _ := httpJSON(t, srv, "POST", "/v1/tenants/alpha/batch", ref.nextBatch(t), &br); code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if br.Batches != uint64(i+1) {
			t.Fatalf("batch %d: server counts %d", i, br.Batches)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/tenants/alpha/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), "jetstream") {
		t.Fatalf("tenant metrics: status %d, body %q", resp.StatusCode, blob)
	}

	var st StateResponse
	if code, _ := httpJSON(t, srv, "GET", "/v1/tenants/alpha/state", nil, &st); code != http.StatusOK {
		t.Fatalf("state: status %d", code)
	}
	got, err := DecodeState(st.State, st.CRC64)
	if err != nil {
		t.Fatalf("decode state: %v", err)
	}
	mustBitwise(t, got, ref.state(), "state after k1")

	if err := svc.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "alpha", shutdownCkptName)); err != nil {
		t.Fatalf("shutdown checkpoint: %v", err)
	}

	svc2 := New(Options{DataDir: dir})
	n, err := svc2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	state2, batches, err := svc2.State("alpha")
	if err != nil {
		t.Fatalf("state after recover: %v", err)
	}
	if batches != k1 {
		t.Fatalf("recovered batches = %d, want %d", batches, k1)
	}
	mustBitwise(t, state2, ref.state(), "state after recover")

	for i := 0; i < 2; i++ {
		if _, err := svc2.Ingest("alpha", ref.nextBatch(t).Batch()); err != nil {
			t.Fatalf("continued batch %d: %v", i, err)
		}
	}
	final, _, err := svc2.State("alpha")
	if err != nil {
		t.Fatalf("final state: %v", err)
	}
	mustBitwise(t, final, ref.state(), "state after continued ingest")
	if err := svc2.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestWALKillRestart simulates a crash: tenants journal through a WAL with
// per-batch sync, the first Service is abandoned without Shutdown, and a
// second Service over the same data directory must recover every tenant to
// its last acknowledged batch — including a declared-but-never-run tenant
// rebuilt from its manifest.
func TestWALKillRestart(t *testing.T) {
	dir := t.TempDir()
	svcA := New(Options{DataDir: dir})

	walCfg := jetstream.Config{WALDir: "wal", WALSync: "batch"}
	reqs := []CreateRequest{
		{Name: "w0", Graph: GraphSpec{Gen: "er", Vertices: 96, Edges: 384, Seed: 3}, Algorithm: jetstream.AlgorithmSpec{Name: "sssp"}, Config: walCfg},
		{Name: "w1", Graph: GraphSpec{Gen: "er", Vertices: 96, Edges: 384, Seed: 4, Symmetrize: true}, Algorithm: jetstream.AlgorithmSpec{Name: "cc"}, Config: walCfg},
		{Name: "w2", Graph: GraphSpec{Gen: "er", Vertices: 96, Edges: 384, Seed: 5}, Algorithm: jetstream.AlgorithmSpec{Name: "bfs"}, Config: walCfg},
	}
	refs := make(map[string]*refTenant)
	for i, req := range reqs {
		if _, err := svcA.Create(req); err != nil {
			t.Fatalf("create %s: %v", req.Name, err)
		}
		refs[req.Name] = newRefTenant(t, req, int64(100+i))
	}

	// w0 and w1 ingest; w2 stays dormant (no snapshot exists yet).
	const k1 = 3
	for _, name := range []string{"w0", "w1"} {
		for i := 0; i < k1; i++ {
			if _, err := svcA.Ingest(name, refs[name].nextBatch(t).Batch()); err != nil {
				t.Fatalf("%s batch %d: %v", name, i, err)
			}
		}
	}
	// Kill: svcA is abandoned here — no Shutdown, no Sync. Every acked batch
	// was synced by the per-batch WAL policy, so it must survive.

	// A manifest written by a build that still had the pipeline_overlap,
	// detailed_timing and inline_degree knobs must recover: the manifest
	// decode ignores fields this build does not know.
	manifest := filepath.Join(dir, "w0", manifestName)
	blob, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	old := bytes.Replace(blob, []byte(`"config": {`), []byte(`"config": {"pipeline_overlap": true, "detailed_timing": true, "inline_degree": 2,`), 1)
	if bytes.Equal(old, blob) {
		t.Fatalf("manifest has no config object to edit: %s", blob)
	}
	if err := os.WriteFile(manifest, old, 0o644); err != nil {
		t.Fatalf("manifest: %v", err)
	}

	svcB := New(Options{DataDir: dir})
	n, err := svcB.Recover()
	if err != nil || n != len(reqs) {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	for _, name := range []string{"w0", "w1"} {
		state, batches, serr := svcB.State(name)
		if serr != nil {
			t.Fatalf("%s state: %v", name, serr)
		}
		if batches != k1 {
			t.Fatalf("%s recovered %d batches, want %d", name, batches, k1)
		}
		mustBitwise(t, state, refs[name].state(), name+" after crash recovery")
	}
	// The dormant tenant rebuilds from its manifest at initial state.
	state, batches, err := svcB.State("w2")
	if err != nil {
		t.Fatalf("w2 state: %v", err)
	}
	if batches != 0 {
		t.Fatalf("w2 recovered %d batches, want 0", batches)
	}
	mustBitwise(t, state, refs["w2"].state(), "w2 after crash recovery")

	// All three continue ingesting on the recovered Service.
	for _, name := range []string{"w0", "w1", "w2"} {
		for i := 0; i < 2; i++ {
			if _, err := svcB.Ingest(name, refs[name].nextBatch(t).Batch()); err != nil {
				t.Fatalf("%s continued batch %d: %v", name, i, err)
			}
		}
		final, _, serr := svcB.State(name)
		if serr != nil {
			t.Fatalf("%s final state: %v", name, serr)
		}
		mustBitwise(t, final, refs[name].state(), name+" final")
	}
	if err := svcB.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBackpressure drives the admission queue to saturation and checks the
// 429 + Retry-After contract, then that the tenant accepts work again once
// the queue drains.
func TestBackpressure(t *testing.T) {
	svc := New(Options{QueueDepth: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := erRequest("busy", "sssp", false)
	ref := newRefTenant(t, req, 7)
	if _, err := svc.Create(req); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Occupy the single admission slot directly: equivalent to a batch
	// mid-apply, without racing a real one.
	tn, err := svc.get("busy")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	tn.sem <- struct{}{}

	batch := ref.nextBatch(t)
	code, hdr := httpJSON(t, srv, "POST", "/v1/tenants/busy/batch", batch, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := svc.Stats().Throttled; got != 1 {
		t.Fatalf("throttled counter = %d, want 1", got)
	}

	<-tn.sem
	if code, _ := httpJSON(t, srv, "POST", "/v1/tenants/busy/batch", batch, nil); code != http.StatusOK {
		t.Fatalf("drained ingest: status %d, want 200", code)
	}
	state, _, err := svc.State("busy")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	mustBitwise(t, state, ref.state(), "state after backpressure retry")
}

// edgeListRequest declares a tiny explicit graph so validity of individual
// updates is obvious: edges 0->1->2 over 4 vertices.
func edgeListRequest(name string, cfg jetstream.Config) CreateRequest {
	return CreateRequest{
		Name: name,
		Graph: GraphSpec{
			Vertices: 4,
			EdgeList: []WireEdge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}},
		},
		Algorithm: jetstream.AlgorithmSpec{Name: "sssp"},
		Config:    cfg,
	}
}

// TestMalformedBatch exercises the 400 path: Strict rejects the batch with
// its issue list and applies nothing; Repair applies the valid part and
// reports the drops.
func TestMalformedBatch(t *testing.T) {
	svc := New(Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, req := range []CreateRequest{
		edgeListRequest("strict", jetstream.Config{}),
		edgeListRequest("repair", jetstream.Config{Ingest: "repair"}),
	} {
		if code, _ := httpJSON(t, srv, "POST", "/v1/tenants", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, code)
		}
	}

	// One valid insert (0->2) and one naming a vertex outside the graph.
	bad := WireBatch{Inserts: []WireEdge{
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 99, Dst: 0, Weight: 1},
	}}

	resp, err := srv.Client().Post(srv.URL+"/v1/tenants/strict/batch", "application/json",
		bytes.NewReader(mustMarshal(t, bad)))
	if err != nil {
		t.Fatalf("strict post: %v", err)
	}
	var eresp ErrorResponse
	jerr := json.NewDecoder(resp.Body).Decode(&eresp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || jerr != nil {
		t.Fatalf("strict: status %d decode %v, want 400", resp.StatusCode, jerr)
	}
	if len(eresp.Issues) != 1 {
		t.Fatalf("strict: %d issues, want 1 (%q)", len(eresp.Issues), eresp.Error)
	}
	var info TenantInfo
	if code, _ := httpJSON(t, srv, "GET", "/v1/tenants/strict", nil, &info); code != http.StatusOK || info.Batches != 0 {
		t.Fatalf("strict after reject: status %d batches %d, want 200/0", code, info.Batches)
	}

	var br BatchResponse
	if code, _ := httpJSON(t, srv, "POST", "/v1/tenants/repair/batch", bad, &br); code != http.StatusOK {
		t.Fatalf("repair: status %d, want 200", code)
	}
	if br.Repaired != 1 || len(br.Issues) != 1 || br.Batches != 1 {
		t.Fatalf("repair: repaired=%d issues=%d batches=%d, want 1/1/1", br.Repaired, len(br.Issues), br.Batches)
	}

	// Bodies the wire grammar refuses: every one a typed 400 that applies
	// nothing.
	for name, body := range map[string]string{
		"wrong-type":     `{"inserts": [{"src": "zero"}]}`,
		"unknown-field":  `{"inserts": [{"src": 0, "dst": 2, "weight": 1, "color": 3}]}`,
		"trailing-value": `{"inserts": [{"src": 0, "dst": 3, "weight": 1}]} {}`,
		"trailing-junk":  `{"inserts": [{"src": 0, "dst": 3, "weight": 1}]}]`,
		"empty":          ``,
	} {
		resp, err = srv.Client().Post(srv.URL+"/v1/tenants/repair/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var eresp ErrorResponse
		jerr := json.NewDecoder(resp.Body).Decode(&eresp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || jerr != nil || eresp.Error == "" {
			t.Errorf("%s: status %d decode %v error %q, want a 400 ErrorResponse", name, resp.StatusCode, jerr, eresp.Error)
		}
	}
	if code, _ := httpJSON(t, srv, "GET", "/v1/tenants/repair", nil, &info); code != http.StatusOK || info.Batches != 1 {
		t.Fatalf("repair after refused bodies: status %d batches %d, want 200/1", code, info.Batches)
	}
}

// blanks is an endless body of JSON whitespace.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBodyLimit pins the one size limit on both endpoints that take a body:
// past maxBodyBytes the answer is a typed 413, whether the length was declared
// up front or only shows while reading.
func TestBodyLimit(t *testing.T) {
	svc := New(Options{})
	if _, err := svc.Create(edgeListRequest("t", jetstream.Config{})); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for _, path := range []string{"/v1/tenants", "/v1/tenants/t/batch"} {
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest("POST", path, io.LimitReader(blanks{}, maxBodyBytes+1))
			req.ContentLength = -1
			if declared {
				req.ContentLength = maxBodyBytes + 1
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var eresp ErrorResponse
			if err := json.NewDecoder(rec.Body).Decode(&eresp); rec.Code != http.StatusRequestEntityTooLarge || err != nil || eresp.Error == "" {
				t.Errorf("%s (length declared: %v): status %d decode %v error %q, want a 413 ErrorResponse",
					path, declared, rec.Code, err, eresp.Error)
			}
		}
	}
	if _, n, err := svc.State("t"); err != nil || n != 0 {
		t.Fatalf("after oversized bodies: batches %d err %v, want 0", n, err)
	}
}

// raceBatch is the k-th batch of a racing client: 64 inserts into vertex 1
// from sources nobody else uses, so batches are valid in whatever order they
// land and applying one takes long enough for requests to overlap.
func raceBatch(t *testing.T, k int) []byte {
	var wb WireBatch
	for j := 0; j < 64; j++ {
		wb.Inserts = append(wb.Inserts, WireEdge{Src: uint32(2 + k*64 + j), Dst: 1, Weight: 1})
	}
	return mustMarshal(t, wb)
}

// TestBatchNumbersUnderConcurrency pins what a batch response reports: the
// tenant's batch count as of that very batch. Four clients race 50 batches
// each at one tenant; every number from 1 to 200 must come back exactly once.
func TestBatchNumbersUnderConcurrency(t *testing.T) {
	const clients, perClient = 4, 50
	svc := New(Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	req := edgeListRequest("shared", jetstream.Config{})
	req.Graph.Vertices = 2 + clients*perClient*64
	if _, err := svc.Create(req); err != nil {
		t.Fatal(err)
	}

	seen := make([][]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/tenants/shared/batch", "application/json",
					bytes.NewReader(raceBatch(t, c*perClient+k)))
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, k, err)
					return
				}
				var br BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("client %d batch %d: status %d decode %v", c, k, resp.StatusCode, err)
					return
				}
				seen[c] = append(seen[c], br.Batches)
			}
		}(c)
	}
	wg.Wait()
	count := make(map[uint64]int)
	for _, s := range seen {
		for _, n := range s {
			count[n]++
		}
	}
	for n := uint64(1); n <= clients*perClient; n++ {
		if count[n] != 1 {
			t.Errorf("batch number %d reported %d times, want once", n, count[n])
		}
	}
}

// TestDeleteRacingIngest: a batch that was applied answers 200 even when the
// tenant is deleted the moment after — the response never looks the tenant
// up a second time. Applied batches (the service's own counter) and 200s
// must agree over many races.
func TestDeleteRacingIngest(t *testing.T) {
	svc := New(Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ok := uint64(0)
	for round := 0; round < 40; round++ {
		req := edgeListRequest("doomed", jetstream.Config{})
		req.Graph.Vertices = 1 << 16
		if _, err := svc.Create(req); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; ; k++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/tenants/doomed/batch", "application/json",
					bytes.NewReader(raceBatch(t, k)))
				if err != nil {
					t.Errorf("round %d batch %d: %v", round, k, err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusNotFound, http.StatusServiceUnavailable:
					return // deleted (or closing) before this batch was admitted
				default:
					t.Errorf("round %d batch %d: status %d", round, k, resp.StatusCode)
					return
				}
			}
		}()
		// Not synchronization: the pause only varies where the delete lands.
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		if err := svc.Delete("doomed"); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	if applied := svc.Stats().BatchesTotal; applied != ok {
		t.Fatalf("%d batches applied but %d answered 200", applied, ok)
	}
}

// TestRacingClientsBitwise is the layer's concurrency differential: 32 tenants
// rotating through the four selective kernels, each hammered by 4 clients
// racing through the tenant's pre-drawn batch sequence (a 429 is retried),
// every final state bitwise its single-threaded reference. The batches are
// insert-only and drawn against the evolving reference, so they are pairwise
// disjoint and commute under a selective kernel: whatever order the clients
// land them in, the state must be the reference's exactly (a delete could be
// reordered ahead of the insert it names, so there are none). The admission
// queue is shallower than the client count so refusals do happen. Under -race
// this is also the data-race regression for the whole layer.
func TestRacingClientsBitwise(t *testing.T) {
	const tenants, clients, perTenant = 32, 4, 6
	svc := New(Options{QueueDepth: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	kernels := []string{"sssp", "sswp", "bfs", "cc"}
	refs := make([]*refTenant, tenants)
	bodies := make([][][]byte, tenants)
	for i := range refs {
		kernel := kernels[i%len(kernels)]
		req := erRequest(fmt.Sprintf("race-%02d", i), kernel, kernel == "cc")
		req.Graph.Seed = int64(7 + i)
		refs[i] = newRefTenant(t, req, int64(1000+i))
		if code, _ := httpJSON(t, srv, "POST", "/v1/tenants", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, code)
		}
		for k := 0; k < perTenant; k++ {
			bodies[i] = append(bodies[i], mustMarshal(t, refs[i].nextBatch(t)))
		}
	}

	var refused atomic.Uint64
	var wg sync.WaitGroup
	for i := range refs {
		url := srv.URL + "/v1/tenants/" + refs[i].req.Name + "/batch"
		var next atomic.Int64 // the tenant's next unsent batch, shared by its clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < perTenant; k = next.Add(1) - 1 {
					for attempt := 0; ; attempt++ {
						resp, err := srv.Client().Post(url, "application/json", bytes.NewReader(bodies[i][k]))
						if err != nil {
							t.Errorf("%s batch %d: %v", url, k, err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							break
						}
						if resp.StatusCode != http.StatusTooManyRequests {
							t.Errorf("%s batch %d: status %d", url, k, resp.StatusCode)
							return
						}
						refused.Add(1)
						time.Sleep(time.Millisecond << min(attempt, 6)) // a client's backoff, not synchronization
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, ref := range refs {
		var st StateResponse
		if code, _ := httpJSON(t, srv, "GET", "/v1/tenants/"+ref.req.Name+"/state", nil, &st); code != http.StatusOK {
			t.Fatalf("%s state: status %d", ref.req.Name, code)
		}
		if st.Batches != perTenant {
			t.Fatalf("%s applied %d batches, want %d", ref.req.Name, st.Batches, perTenant)
		}
		got, err := DecodeState(st.State, st.CRC64)
		if err != nil {
			t.Fatalf("%s state: %v", ref.req.Name, err)
		}
		mustBitwise(t, got, ref.state(), ref.req.Name+" after racing clients")
	}
	stats := svc.Stats()
	if stats.Tenants != tenants || stats.BatchesTotal != tenants*perTenant || stats.RejectedTotal != 0 {
		t.Fatalf("stats: %d tenants, %d batches, %d rejected; want %d, %d, 0",
			stats.Tenants, stats.BatchesTotal, stats.RejectedTotal, tenants, tenants*perTenant)
	}
	if got := refused.Load(); stats.Throttled != got {
		t.Fatalf("service counted %d throttled requests, clients saw %d", stats.Throttled, got)
	}
	if err := svc.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return blob
}

// TestCreateErrors covers the declarative rejection paths: bad names, bad
// algorithms, bad configs, escapes, duplicates, limits, and 404s.
func TestCreateErrors(t *testing.T) {
	svc := New(Options{MaxTenants: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(body string) int {
		resp, err := srv.Client().Post(srv.URL+"/v1/tenants", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad-name", `{"name":"a/b","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"}}`, 400},
		{"unknown-algorithm", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"dijkstra"}}`, 400},
		{"unknown-generator", `{"name":"t","graph":{"gen":"torus","vertices":8},"algorithm":{"name":"sssp"}}`, 400},
		{"bad-config", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"opt":"turbo"}}`, 400},
		{"wal-without-datadir", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"wal_dir":"wal"}}`, 400},
		{"rebuild-graph-not-on-wire", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"rebuild_graph":true}}`, 400},
		{"pipeline-overlap-not-on-wire", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"pipeline_overlap":true}}`, 400},
		{"detailed-timing-not-on-wire", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"detailed_timing":true}}`, 400},
		{"inline-degree-not-on-wire", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"config":{"inline_degree":2}}`, 400},
		{"unknown-body-field", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"},"surprise":1}`, 400},
		{"too-many-vertices", `{"name":"t","graph":{"gen":"er","vertices":99999999,"edges":8},"algorithm":{"name":"sssp"}}`, 400},
		{"trailing-data", `{"name":"t","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"}} {"name":"u"}`, 400},
	}
	for _, c := range cases {
		if got := post(c.body); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}

	ok := `{"name":"only","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"}}`
	if got := post(ok); got != http.StatusCreated {
		t.Fatalf("valid create: status %d", got)
	}
	if got := post(ok); got != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", got)
	}
	second := `{"name":"second","graph":{"gen":"er","vertices":8,"edges":8},"algorithm":{"name":"sssp"}}`
	if got := post(second); got != http.StatusTooManyRequests {
		t.Errorf("tenant limit: status %d, want 429", got)
	}

	if code, _ := httpJSON(t, srv, "GET", "/v1/tenants/ghost/state", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", code)
	}

	// WAL escape attempts go through a DataDir-enabled service.
	dsvc := New(Options{DataDir: t.TempDir()})
	for _, walDir := range []string{"../out", "/abs"} {
		req := erRequest("esc", "sssp", false)
		req.Config.WALDir = walDir
		if _, err := dsvc.Create(req); err == nil {
			t.Errorf("wal_dir %q accepted, want rejection", walDir)
		}
	}

	// Delete frees the name and the tenant's durable directory.
	req := erRequest("gone", "sssp", false)
	if _, err := dsvc.Create(req); err != nil {
		t.Fatalf("create gone: %v", err)
	}
	if err := dsvc.Delete("gone"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := dsvc.State("gone"); err == nil {
		t.Fatal("deleted tenant still serves state")
	}
	if _, err := dsvc.Create(req); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
}

// TestCreateAfterShutdown covers Create's closed-service branch: it refuses
// with ErrClosed and leaves the registry lock free, so the calls after it
// return instead of blocking.
func TestCreateAfterShutdown(t *testing.T) {
	svc := New(Options{})
	if _, err := svc.Create(erRequest("before", "sssp", false)); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := svc.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := svc.Create(erRequest("after", "sssp", false)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: %v, want ErrClosed", err)
	}
	done := make(chan StatsResponse, 1)
	go func() {
		svc.Names()
		done <- svc.Stats()
	}()
	select {
	case st := <-done:
		if st.Tenants != 1 {
			t.Fatalf("stats after shutdown: %d tenants, want the 1 created before", st.Tenants)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Names/Stats blocked after a refused Create: the registry lock leaked")
	}
}

// TestCreateRefusesNegativeCycle: an edge list holding a negative cycle
// (0→1 w 1, 1→2 w −3, 2→1 w 1) is refused at create with 400 and the
// bad-weight issue. A service that let it through would hang the tenant's
// first batch in the initial evaluation; that batch runs under a deadline so
// the test fails instead.
func TestCreateRefusesNegativeCycle(t *testing.T) {
	svc := New(Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	req := CreateRequest{
		Name: "neg",
		Graph: GraphSpec{Vertices: 3, EdgeList: []WireEdge{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -3}, {Src: 2, Dst: 1, Weight: 1},
		}},
		Algorithm: jetstream.AlgorithmSpec{Name: "sssp"},
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/tenants", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		done := make(chan error, 1)
		go func() {
			_, err := svc.Ingest("neg", jetstream.Batch{Inserts: []jetstream.Edge{{Src: 0, Dst: 2, Weight: 1}}})
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("negative cycle created; the first batch returned %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("negative cycle created; the first batch did not return within 5s")
		}
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || len(body.Issues) != 1 || body.Issues[0].Edge.Weight != -3 {
		t.Fatalf("create: status %d, issues %v, want 400 with the (1,2,-3) issue", resp.StatusCode, body.Issues)
	}
}

// TestRecoverLogsEachTenant: Recover writes one log line per tenant, in
// directory order, naming the evidence, the records replayed and how, any
// torn tail, and the wall time.
func TestRecoverLogsEachTenant(t *testing.T) {
	dir := t.TempDir()
	svcA := New(Options{DataDir: dir})
	walCfg := jetstream.Config{WALDir: "wal", WALSync: "batch"}
	reqs := []CreateRequest{
		{Name: "a-bfs", Graph: GraphSpec{Gen: "er", Vertices: 64, Edges: 256, Seed: 3}, Algorithm: jetstream.AlgorithmSpec{Name: "bfs"}, Config: walCfg},
		{Name: "b-pr", Graph: GraphSpec{Gen: "er", Vertices: 64, Edges: 256, Seed: 4}, Algorithm: jetstream.AlgorithmSpec{Name: "pagerank"}, Config: walCfg},
		{Name: "c-dormant", Graph: GraphSpec{Gen: "er", Vertices: 64, Edges: 256, Seed: 5}, Algorithm: jetstream.AlgorithmSpec{Name: "sssp"}},
	}
	for i, req := range reqs {
		if _, err := svcA.Create(req); err != nil {
			t.Fatalf("create %s: %v", req.Name, err)
		}
		if i == 2 {
			break
		}
		ref := newRefTenant(t, req, int64(10+i))
		for k := 0; k < 3; k++ {
			if _, err := svcA.Ingest(req.Name, ref.nextBatch(t).Batch()); err != nil {
				t.Fatalf("%s batch %d: %v", req.Name, k, err)
			}
		}
	}
	// Tear the last record of b-pr's log: recovery cuts it and replays two.
	logPath := filepath.Join(dir, "b-pr", "wal", "wal.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey || a.Key == "took" {
				return slog.Attr{}
			}
			return a
		},
	})))
	t.Cleanup(func() { slog.SetDefault(prev) })
	svcB := New(Options{DataDir: dir})
	if n, err := svcB.Recover(); err != nil || n != 3 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	defer svcB.Shutdown()
	want := []string{
		`level=INFO msg="tenant recovered" tenant=a-bfs evidence=snapshot+log replayed=3 replay=rebuilt truncated=false valid_size=`,
		`level=INFO msg="tenant recovered" tenant=b-pr evidence=snapshot+log replayed=2 replay=per-record truncated=true valid_size=`,
		`level=INFO msg="tenant recovered" tenant=c-dormant evidence=manifest replayed=0 replay=none truncated=false valid_size=0`,
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("log:\n%s\nwant %d lines", out.String(), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	if _, batches, err := svcB.State("b-pr"); err != nil || batches != 2 {
		t.Fatalf("b-pr after the torn tail: %d batches, err %v", batches, err)
	}
}
