package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"jetstream"
	"jetstream/internal/obs"
	"jetstream/internal/wal"
)

// Typed service errors; the HTTP layer maps them to status codes.
var (
	// ErrNotFound: the named tenant does not exist (404).
	ErrNotFound = errors.New("service: tenant not found")
	// ErrExists: create collided with a live tenant of the same name (409).
	ErrExists = errors.New("service: tenant already exists")
	// ErrBusy: the tenant's admission queue is full — back off and retry
	// (429 + Retry-After).
	ErrBusy = errors.New("service: tenant ingest queue full")
	// ErrTenantLimit: the registry is at MaxTenants (429).
	ErrTenantLimit = errors.New("service: tenant limit reached")
	// ErrClosed: the service is shutting down (503).
	ErrClosed = errors.New("service: shutting down")
	// ErrInvalid wraps every malformed declaration or batch (400).
	ErrInvalid = errors.New("service: invalid request")
)

// nameRE bounds tenant names to path- and metric-safe tokens.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// Options configures a Service.
type Options struct {
	// DataDir is the root for per-tenant durable state (manifests, WALs,
	// shutdown checkpoints). Empty disables durability: tenants are
	// memory-only and cannot use Config.WALDir.
	DataDir string
	// MaxTenants caps the registry (default 1024).
	MaxTenants int
	// QueueDepth bounds each tenant's admission queue: at most QueueDepth
	// batches may be queued or applying per tenant before ingest returns
	// ErrBusy (default 8).
	QueueDepth int
	// MaxVertices caps a declared graph's vertex count (default 1<<22), so a
	// single create request cannot exhaust the host.
	MaxVertices int
}

func (o Options) withDefaults() Options {
	if o.MaxTenants <= 0 {
		o.MaxTenants = 1024
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxVertices <= 0 {
		o.MaxVertices = 1 << 22
	}
	return o
}

// Tenant is one hosted standing query: a System plus the locking and
// admission state that lets many tenants share a process safely.
type Tenant struct {
	name string
	dir  string // per-tenant durable directory; "" without DataDir
	req  CreateRequest

	// sem is the bounded admission queue: a token is held from ingress
	// until the batch is applied, so at most cap(sem) batches are in flight
	// or waiting per tenant and the excess is throttled, not queued.
	sem chan struct{}

	// mu serializes every System operation for this tenant. Batches are
	// therefore ordered per tenant while distinct tenants proceed in
	// parallel; the System's own ErrConcurrentApply guard stays a tripwire,
	// never the working lock.
	mu      sync.Mutex
	sys     *jetstream.System
	started bool // RunInitial has run (deferred to first use)
	closed  bool
}

// Service is the tenant registry.
type Service struct {
	opts Options

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool

	// Aggregate service metrics, exported at /metrics alongside the
	// per-tenant registries.
	reg        *obs.Registry
	tenantsG   *obs.Gauge
	batchesC   *obs.Counter
	throttledC *obs.Counter
	rejectedC  *obs.Counter
	recoveredC *obs.Counter
	latency    *obs.Histogram
}

// New builds an empty Service. Call Recover to resurrect tenants from a
// previous process's DataDir.
func New(opts Options) *Service {
	s := &Service{
		opts:    opts.withDefaults(),
		tenants: make(map[string]*Tenant),
		reg:     obs.NewRegistry(),
	}
	s.tenantsG = s.reg.Gauge("jetstreamd_tenants")
	s.batchesC = s.reg.Counter("jetstreamd_batches_total")
	s.throttledC = s.reg.Counter("jetstreamd_throttled_total")
	s.rejectedC = s.reg.Counter("jetstreamd_rejected_batches_total")
	s.recoveredC = s.reg.Counter("jetstreamd_recovered_tenants_total")
	s.latency = s.reg.Histogram("jetstreamd_ingest_latency_ns")
	return s
}

// Registry exposes the aggregate metrics registry (for /metrics).
func (s *Service) Registry() *obs.Registry { return s.reg }

// manifestName is the per-tenant declaration file inside DataDir/<name>.
const manifestName = "manifest.json"

// shutdownCkptName is the checkpoint a graceful shutdown writes for tenants
// without a WAL (WAL tenants already own a snapshot+log pair).
const shutdownCkptName = "shutdown.ckpt"

// tenantWALDir resolves a tenant-declared WAL directory under the tenant's
// data directory. The declared path must be relative and stay inside it.
func tenantWALDir(dir, declared string) (string, error) {
	if filepath.IsAbs(declared) {
		return "", fmt.Errorf("%w: wal_dir must be relative to the tenant data directory", ErrInvalid)
	}
	clean := filepath.Clean(declared)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: wal_dir escapes the tenant data directory", ErrInvalid)
	}
	return filepath.Join(dir, clean), nil
}

// validate checks a create request without building anything.
func (s *Service) validate(req CreateRequest) error {
	if !nameRE.MatchString(req.Name) {
		return fmt.Errorf("%w: tenant name %q (want %s)", ErrInvalid, req.Name, nameRE)
	}
	if req.Graph.Vertices > s.opts.MaxVertices {
		return fmt.Errorf("%w: %d vertices exceeds the limit %d", ErrInvalid, req.Graph.Vertices, s.opts.MaxVertices)
	}
	if err := req.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if req.Config.WALDir != "" && s.opts.DataDir == "" {
		return fmt.Errorf("%w: wal_dir requires the service to run with a data directory", ErrInvalid)
	}
	if _, err := jetstream.NewAlgorithm(req.Algorithm); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return nil
}

// buildSystem constructs the tenant's System from its declaration, resolving
// the WAL directory under dir ("" for memory-only tenants).
func buildSystem(req CreateRequest, dir string) (*jetstream.System, error) {
	alg, err := jetstream.NewAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	g, err := req.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	cfg := req.Config
	if cfg.WALDir != "" {
		resolved, werr := tenantWALDir(dir, cfg.WALDir)
		if werr != nil {
			return nil, werr
		}
		cfg.WALDir = resolved
	}
	sys, err := jetstream.New(g, alg, cfg.Options()...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return sys, nil
}

// Create declares a new tenant. The System is constructed immediately (so a
// bad declaration fails the request) but stays dormant — no initial
// evaluation, no O(V) engine state — until its first batch or state read.
func (s *Service) Create(req CreateRequest) (*Tenant, error) {
	if err := s.validate(req); err != nil {
		return nil, err
	}

	// Reserve the name under the registry lock, then build outside it so a
	// large tenant construction cannot stall unrelated tenants.
	t, err := s.reserve(req)
	if err != nil {
		return nil, err
	}
	undo := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.tenants, req.Name)
		s.tenantsG.Set(int64(len(s.tenants)))
	}
	if t.dir != "" {
		if err := s.writeManifest(t); err != nil {
			undo()
			return nil, err
		}
	}
	sys, err := buildSystem(req, t.dir)
	if err != nil {
		if t.dir != "" {
			_ = os.RemoveAll(t.dir)
		}
		undo()
		return nil, err
	}
	t.sys = sys
	return t, nil
}

// reserve registers a dormant tenant record under req.Name, refusing a closed
// service, a taken name and a full registry.
func (s *Service) reserve(req CreateRequest) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.tenants[req.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, req.Name)
	}
	if len(s.tenants) >= s.opts.MaxTenants {
		return nil, fmt.Errorf("%w (%d)", ErrTenantLimit, s.opts.MaxTenants)
	}
	t := &Tenant{
		name: req.Name,
		req:  req,
		sem:  make(chan struct{}, s.opts.QueueDepth),
	}
	if s.opts.DataDir != "" {
		t.dir = filepath.Join(s.opts.DataDir, req.Name)
	}
	s.tenants[req.Name] = t
	s.tenantsG.Set(int64(len(s.tenants)))
	return t, nil
}

// writeManifest persists the tenant declaration atomically.
func (s *Service) writeManifest(t *Tenant) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	blob, err := json.MarshalIndent(t.req, "", "  ")
	if err != nil {
		return fmt.Errorf("service: manifest: %w", err)
	}
	err = wal.WriteFileAtomic(nil, filepath.Join(t.dir, manifestName), func(w io.Writer) error {
		_, werr := w.Write(blob)
		return werr
	})
	if err != nil {
		return fmt.Errorf("service: manifest: %w", err)
	}
	return nil
}

// get returns the live tenant or ErrNotFound.
func (s *Service) get(name string) (*Tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t, nil
}

// Names lists live tenants in sorted order.
func (s *Service) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// startLocked runs the deferred initial evaluation. Caller holds t.mu.
func (t *Tenant) startLocked() {
	if !t.started {
		t.sys.RunInitial()
		t.started = true
	}
}

// Ingest applies one batch to the named tenant. Admission is bounded: when
// QueueDepth batches are already queued or applying for this tenant, it
// fails fast with ErrBusy instead of queueing unboundedly — the caller's
// backpressure signal. Malformed batches surface the System's own
// *jetstream.BatchError (Strict) or repair report.
func (s *Service) Ingest(name string, b jetstream.Batch) (jetstream.Result, error) {
	res, _, err := s.ingest(name, b)
	return res, err
}

// ingest is Ingest that also returns the tenant's batch count as of this
// batch, read under the same hold of the tenant lock that applied it — the
// number the HTTP response reports, whatever other clients or a delete do
// next.
func (s *Service) ingest(name string, b jetstream.Batch) (jetstream.Result, uint64, error) {
	t, err := s.get(name)
	if err != nil {
		return jetstream.Result{}, 0, err
	}
	select {
	case t.sem <- struct{}{}:
	default:
		s.throttledC.Inc()
		return jetstream.Result{}, 0, fmt.Errorf("%w: %q has %d batches in flight", ErrBusy, name, cap(t.sem))
	}
	defer func() { <-t.sem }()

	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return jetstream.Result{}, 0, ErrClosed
	}
	t.startLocked()
	res, err := t.sys.ApplyBatch(b)
	if err != nil {
		s.rejectedC.Inc()
		return jetstream.Result{}, 0, err
	}
	s.batchesC.Inc()
	s.latency.Observe(uint64(time.Since(start).Nanoseconds()))
	return res, t.sys.Batches(), nil
}

// State returns the tenant's converged per-vertex state (running the initial
// evaluation first if the tenant is still dormant) and its batch count.
func (s *Service) State(name string) ([]float64, uint64, error) {
	t, err := s.get(name)
	if err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, ErrClosed
	}
	t.startLocked()
	return t.sys.State(), t.sys.Batches(), nil
}

// Info describes the tenant.
func (s *Service) Info(name string) (TenantInfo, error) {
	t, err := s.get(name)
	if err != nil {
		return TenantInfo{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.sys.Graph()
	return TenantInfo{
		Name:      t.name,
		Algorithm: t.req.Algorithm,
		Config:    t.req.Config,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Batches:   t.sys.Batches(),
		Started:   t.started,
		WALSize:   t.sys.WALSize(),
	}, nil
}

// Metrics returns the tenant's own metrics registry handler source; the HTTP
// layer mounts it at /v1/tenants/{name}/metrics.
func (s *Service) tenant(name string) (*Tenant, error) { return s.get(name) }

// Delete closes the tenant, removes it from the registry, and deletes its
// durable directory. Deleting is final: the WAL and manifest go with it.
func (s *Service) Delete(name string) error {
	t, err := s.remove(name)
	if err != nil {
		return err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if err := t.sys.Close(); err != nil {
		return fmt.Errorf("service: delete %q: %w", name, err)
	}
	if t.dir != "" {
		if err := os.RemoveAll(t.dir); err != nil {
			return fmt.Errorf("service: delete %q: %w", name, err)
		}
	}
	return nil
}

// remove unregisters the named tenant and returns it.
func (s *Service) remove(name string) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.tenants, name)
	s.tenantsG.Set(int64(len(s.tenants)))
	return t, nil
}

// Shutdown drains and closes every tenant gracefully: new requests are
// refused, then each tenant is checkpointed-or-synced — WAL tenants fsync
// their log (their snapshot+log pair is already durable); non-WAL tenants
// with a data directory write a shutdown checkpoint so recovery restores
// their exact state; memory-only tenants just close. The first error is
// returned but every tenant is still processed.
func (s *Service) Shutdown() error {
	var first error
	for _, t := range s.markClosed() {
		if err := s.closeTenant(t); err != nil && first == nil {
			first = fmt.Errorf("service: shutdown %q: %w", t.name, err)
		}
	}
	return first
}

// markClosed refuses every later request and returns the tenants to drain; a
// second call returns none.
func (s *Service) markClosed() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	return tenants
}

// closeTenant makes one tenant durable and closes it.
func (s *Service) closeTenant(t *Tenant) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	err := s.persistLocked(t)
	if cerr := t.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// persistLocked makes a tenant's state durable at shutdown. Caller holds
// t.mu.
func (s *Service) persistLocked(t *Tenant) error {
	switch {
	case t.req.Config.WALDir != "":
		// Journaled per batch; just make sure the tail is on disk.
		return t.sys.Sync()
	case t.dir != "" && t.started:
		return wal.WriteFileAtomic(nil, filepath.Join(t.dir, shutdownCkptName), t.sys.Checkpoint)
	default:
		return nil
	}
}

// Recover scans DataDir for tenant manifests and resurrects each: WAL-backed
// tenants through RecoverFromDir (snapshot + durable log tail), checkpointed
// tenants through Restore, and declared-but-never-run tenants by rebuilding
// from the manifest, one directory at a time in directory order, each with
// one log line. Returns how many tenants were brought back. Call before
// serving.
func (s *Service) Recover() (int, error) {
	if s.opts.DataDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("service: recover: %w", err)
	}
	n := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if err := s.recoverTenant(ent.Name()); err != nil {
			return n, err
		}
		n++
		s.recoveredC.Inc()
	}
	return n, nil
}

// recoverTenant resurrects one tenant directory and writes its one log line:
// the evidence it came back from, the log records replayed and how, any torn
// tail cut, and the wall time.
func (s *Service) recoverTenant(name string) error {
	start := time.Now()
	dir := filepath.Join(s.opts.DataDir, name)
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("service: recover %q: %w", name, err)
	}
	var req CreateRequest
	if err := json.Unmarshal(blob, &req); err != nil {
		return fmt.Errorf("service: recover %q: manifest: %w", name, err)
	}
	if req.Name != name {
		return fmt.Errorf("service: recover %q: manifest names %q", name, req.Name)
	}

	t := &Tenant{name: name, dir: dir, req: req, sem: make(chan struct{}, s.opts.QueueDepth)}
	evidence, report := "manifest", jetstream.RecoveryReport{}
	switch {
	case req.Config.WALDir != "":
		walDir, werr := tenantWALDir(dir, req.Config.WALDir)
		if werr != nil {
			return fmt.Errorf("service: recover %q: %w", name, werr)
		}
		if _, serr := os.Stat(filepath.Join(walDir, jetstream.SnapshotName)); serr == nil {
			pol, perr := jetstream.ParseWALSyncPolicy(req.Config.WALSync)
			if perr != nil {
				return fmt.Errorf("service: recover %q: %w", name, perr)
			}
			sys, rerr := jetstream.RecoverFromDir(walDir, jetstream.WithWALOptions(walDir, jetstream.WALOptions{
				Sync: pol, Interval: req.Config.WALSyncInterval,
			}))
			if rerr != nil {
				return fmt.Errorf("service: recover %q: %w", name, rerr)
			}
			t.sys, t.started = sys, true
			evidence, report = "snapshot+log", sys.Recovery()
		} else {
			// Declared with a WAL but never journaled a batch (the snapshot
			// lands with the first one): rebuild from the manifest. A stale
			// empty log file would make the fresh attach refuse, so clear it.
			_ = os.Remove(filepath.Join(walDir, wal.LogName))
			sys, berr := buildSystem(req, dir)
			if berr != nil {
				return fmt.Errorf("service: recover %q: %w", name, berr)
			}
			t.sys = sys
		}
	default:
		if ckpt, oerr := os.Open(filepath.Join(dir, shutdownCkptName)); oerr == nil {
			sys, rerr := jetstream.Restore(ckpt)
			cerr := ckpt.Close()
			if rerr != nil {
				return fmt.Errorf("service: recover %q: %w", name, rerr)
			}
			if cerr != nil {
				return fmt.Errorf("service: recover %q: %w", name, cerr)
			}
			t.sys, t.started = sys, true
			evidence = "shutdown checkpoint"
		} else {
			sys, berr := buildSystem(req, dir)
			if berr != nil {
				return fmt.Errorf("service: recover %q: %w", name, berr)
			}
			t.sys = sys
		}
	}
	if err := s.register(t); err != nil {
		_ = t.sys.Close() // refusing anyway; err is authoritative
		return err
	}
	replay := "none"
	switch {
	case report.Folded:
		replay = "folded"
	case report.Replayed > 0:
		replay = "per-record"
	}
	slog.Info("tenant recovered", "tenant", name, "evidence", evidence,
		"replayed", report.Replayed, "replay", replay,
		"truncated", report.Truncated, "valid_size", report.ValidSize, "took", time.Since(start))
	return nil
}

// register adds a recovered tenant to the registry.
func (s *Service) register(t *Tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tenants[t.name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, t.name)
	}
	s.tenants[t.name] = t
	s.tenantsG.Set(int64(len(s.tenants)))
	return nil
}

// Stats snapshots the aggregate service counters.
func (s *Service) Stats() StatsResponse {
	lat := s.latency.Snapshot()
	return StatsResponse{
		Tenants:        s.tenantCount(),
		BatchesTotal:   s.batchesC.Load(),
		Throttled:      s.throttledC.Load(),
		RejectedTotal:  s.rejectedC.Load(),
		RecoveredTotal: s.recoveredC.Load(),
		IngestP50Ns:    lat.Quantile(0.50),
		IngestP99Ns:    lat.Quantile(0.99),
	}
}

// tenantCount is the number of live tenants.
func (s *Service) tenantCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}
