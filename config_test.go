package jetstream

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// configOf is the Config New would consume for opts (library defaults,
// timing on, with opts applied).
func configOf(opts ...Option) Config {
	set := settings{Config: Config{Timing: true}}
	for _, o := range opts {
		o(&set)
	}
	return set.Config
}

// configOptionCases uses every exported data-expressible option at least
// once, each moving its Config field off the default.
var configOptionCases = []struct {
	name string
	opts []Option
}{
	{"defaults", nil},
	{"opt-base", []Option{WithOpt(OptBase)}},
	{"opt-vap", []Option{WithOpt(OptVAP)}},
	{"slices", []Option{WithSlices(4)}},
	{"timing-off", []Option{WithTiming(false)}},
	{"parallelism", []Option{WithTiming(false), WithParallelism(4)}},
	{"ingest-repair", []Option{WithIngest(Repair)}},
	{"window", []Option{WithWindow(7)}},
	{"wal", []Option{WithWAL("walsubdir")}},
	{"wal-options", []Option{WithWALOptions("walsubdir", WALOptions{Sync: WALSyncInterval, Interval: 3})}},
	{"watchdog", []Option{WithWatchdog(WatchdogConfig{Every: 5, Epsilon: 1e-6, Sample: 100})}},
	{"kitchen-sink", []Option{
		WithOpt(OptVAP), WithSlices(2), WithTiming(false), WithIngest(Repair),
		WithWindow(3),
		WithWALOptions("walsubdir", WALOptions{Sync: WALSyncNone, Interval: 9}),
		WithWatchdog(WatchdogConfig{Every: 2, Epsilon: 0.5, Sample: 10}),
	}},
}

// TestConfigRoundTrip checks, for every case, that the Config an option list
// writes is valid, survives JSON bit for bit, and — handed back through
// Config.Options — is what New consumes.
func TestConfigRoundTrip(t *testing.T) {
	for _, tc := range configOptionCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := configOf(tc.opts...)
			if tc.opts != nil && cfg == configOf() {
				t.Fatalf("options left the Config at its defaults: %+v", cfg)
			}
			if got := configOf(cfg.Options()...); got != cfg {
				t.Fatalf("configOf(cfg.Options()) = %+v, want %+v", got, cfg)
			}
			blob, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back Config
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if back != cfg {
				t.Fatalf("JSON round trip: got %+v, want %+v (json %s)", back, cfg, blob)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
			}
		})
	}
}

// TestConfigDefaults pins the two default shapes: New with no options is the
// library default (timing on), and the zero Config is the serving default
// (timing off); both are valid and otherwise identical.
func TestConfigDefaults(t *testing.T) {
	var zero Config
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Config must validate: %v", err)
	}
	g := RMAT(RMATConfig{Vertices: 16, Edges: 32, Seed: 1})
	lib, err := New(g, SSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, SSSP(0), zero.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if !lib.cfg.Engine.Timing || srv.cfg.Engine.Timing {
		t.Fatalf("timing: New() = %v (want on), zero Config = %v (want off)", lib.cfg.Engine.Timing, srv.cfg.Engine.Timing)
	}
	srv.cfg.Engine.Timing = true
	if !reflect.DeepEqual(lib.cfg, srv.cfg) {
		t.Fatalf("zero Config differs from New() beyond timing:\n%+v\n%+v", srv.cfg, lib.cfg)
	}
}

// TestConfigInvalid checks that bad values are rejected by Validate and by
// New alike, always wrapping ErrConfigConflict.
func TestConfigInvalid(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad-opt", Config{Opt: "turbo"}},
		{"bad-ingest", Config{Ingest: "yolo"}},
		{"bad-wal-sync", Config{WALDir: "w", WALSync: "sometimes"}},
		{"wal-knobs-without-dir", Config{WALSync: "batch", WALSyncInterval: 4}},
		{"parallel-with-timing", Config{Timing: true, Parallelism: 4}},
		{"parallel-with-slices", Config{Parallelism: 4, Slices: 2}},
		{"negative-window", Config{WindowTTL: -1}},
		{"negative-slices", Config{Slices: -2}},
		{"negative-parallelism", Config{Parallelism: -3}},
	}
	g := RMAT(RMATConfig{Vertices: 16, Edges: 32, Seed: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tc.cfg)
			}
			if !errors.Is(err, ErrConfigConflict) {
				t.Fatalf("Validate error %v does not wrap ErrConfigConflict", err)
			}
			if _, nerr := New(g, SSSP(0), tc.cfg.Options()...); !errors.Is(nerr, ErrConfigConflict) {
				t.Fatalf("New with invalid config %+v: error %v does not wrap ErrConfigConflict", tc.cfg, nerr)
			}
		})
	}
}

// TestConfigConstructsSystem drives the declarative path end to end: a
// System declared purely from data must behave identically to one built from
// hand-written options.
func TestConfigConstructsSystem(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 64, Edges: 256, Seed: 7})
	cfg := Config{Ingest: "repair", WindowTTL: 4}
	declared, err := New(g, SSSP(0), cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := New(g, SSSP(0), WithTiming(false), WithIngest(Repair), WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	declared.RunInitial()
	manual.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 32, InsertFrac: 0.7, Seed: 11})
	for i := 0; i < 5; i++ {
		b := gen.Next(declared.Graph())
		if _, err := declared.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := manual.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	ds, ms := declared.State(), manual.State()
	if !reflect.DeepEqual(ds, ms) {
		t.Fatalf("declared and manual systems diverged")
	}
}
