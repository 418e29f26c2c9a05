package jetstream

import (
	"fmt"

	"jetstream/internal/wal"
)

// Config is the one settings struct New consumes: every With* option is a
// setter over one of its fields, and Config.Options hands the whole struct to
// New at once. It is plain data and round-trips through JSON, so a System can
// be declared over the wire — a service create-tenant request carries
// {graph, algorithm, config} as data, not code.
//
// Enumerated knobs use their command-line spellings ("dap", "strict",
// "batch") rather than internal integer constants, so a JSON document reads
// the way the flags do and an out-of-range integer cannot alias a valid
// level. The zero Config is valid: it selects the library defaults except
// that Timing is off — the right default for a functional streaming service;
// New with no options starts from the same struct with Timing on.
//
// Runtime-only options have no Config field by design: WithObserver (a live
// callback) and the WAL filesystem override (fault-injection hook). They
// remain available to code via New's option list.
type Config struct {
	// Opt selects the deletion-recovery optimization: "base", "vap", or
	// "dap" ("" = "dap", the library default).
	Opt string `json:"opt,omitempty"`
	// Slices partitions the graph into k slices; 0 or 1 disables slicing.
	Slices int `json:"slices,omitempty"`
	// Timing enables the cycle-accurate timing model. Unlike New (whose
	// default is on), the zero Config leaves it off.
	Timing bool `json:"timing,omitempty"`
	// Parallelism shards the functional compute phases across p workers;
	// 0 keeps the engine default.
	Parallelism int `json:"parallelism,omitempty"`
	// Ingest is the invalid-update policy: "strict" or "repair"
	// ("" = "strict").
	Ingest string `json:"ingest,omitempty"`
	// WindowTTL bounds every edge's lifetime to this many batches; 0 means
	// infinite retention (see WithWindow).
	WindowTTL int `json:"window_ttl,omitempty"`

	// WALDir attaches a write-ahead log in this directory; empty disables
	// journaling (and the other WAL fields must then be zero).
	WALDir string `json:"wal_dir,omitempty"`
	// WALSync is the fsync cadence: "batch", "interval", or "none"
	// ("" = "batch"). Only meaningful with WALDir set.
	WALSync string `json:"wal_sync,omitempty"`
	// WALSyncInterval is the batch count between fsyncs under "interval".
	WALSyncInterval int `json:"wal_sync_interval,omitempty"`

	// WatchdogEvery runs the divergence watchdog every N batches; 0 disables
	// it (see WithWatchdog).
	WatchdogEvery int `json:"watchdog_every,omitempty"`
	// WatchdogEpsilon is the divergence threshold that triggers fallback.
	WatchdogEpsilon float64 `json:"watchdog_epsilon,omitempty"`
	// WatchdogSample caps how many vertices each check verifies; 0 checks all.
	WatchdogSample int `json:"watchdog_sample,omitempty"`
}

// Options returns the option that installs c as the whole configuration, so
// New(g, a, c.Options()...) constructs the declared System. Options that
// follow it in New's list adjust individual fields on top.
func (c Config) Options() []Option {
	return []Option{func(s *settings) { s.Config = c }}
}

// resolved is a checked Config's enumerated fields in their internal form.
type resolved struct {
	opt    OptLevel
	ingest IngestPolicy
	sync   wal.SyncPolicy
}

// parseOptLevel resolves the wire spelling ("" selects the default).
func parseOptLevel(name string) (OptLevel, error) {
	switch name {
	case "", "dap":
		return OptDAP, nil
	case "vap":
		return OptVAP, nil
	case "base":
		return OptBase, nil
	default:
		return 0, fmt.Errorf("unknown opt level %q (want base, vap, or dap)", name)
	}
}

// parseIngest resolves the wire spelling ("" selects the default).
func parseIngest(name string) (IngestPolicy, error) {
	switch name {
	case "", "strict":
		return Strict, nil
	case "repair":
		return Repair, nil
	default:
		return 0, fmt.Errorf("unknown ingest policy %q (want strict or repair)", name)
	}
}

// resolve is the one place a configuration is checked, shared by New and
// Validate: it parses the enumerated fields and rejects out-of-range counts,
// orphaned WAL knobs, and settings that cannot be honored together. Every
// error wraps ErrConfigConflict.
func (c Config) resolve() (r resolved, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrConfigConflict, err)
		}
	}()
	if r.opt, err = parseOptLevel(c.Opt); err != nil {
		return r, err
	}
	if r.ingest, err = parseIngest(c.Ingest); err != nil {
		return r, err
	}
	if r.sync, err = wal.ParseSyncPolicy(c.WALSync); err != nil {
		return r, err
	}
	for _, n := range []struct {
		field string
		v     int
	}{
		{"slices", c.Slices}, {"parallelism", c.Parallelism},
		{"window_ttl", c.WindowTTL}, {"wal_sync_interval", c.WALSyncInterval},
	} {
		if n.v < 0 {
			return r, fmt.Errorf("%s %d must be non-negative", n.field, n.v)
		}
	}
	if c.WALDir == "" && (c.WALSync != "" || c.WALSyncInterval != 0) {
		return r, fmt.Errorf("wal_sync/wal_sync_interval set without wal_dir")
	}
	if c.Parallelism > 1 {
		if c.Timing {
			return r, fmt.Errorf("parallelism %d requires the timing model off (WithTiming(false))", c.Parallelism)
		}
		if c.Slices > 1 {
			return r, fmt.Errorf("parallelism %d cannot be combined with %d slices", c.Parallelism, c.Slices)
		}
	}
	return r, nil
}

// Validate reports whether the Config can construct a System, without
// building one — exactly the checks New itself runs. Services use it to turn
// a bad tenant declaration into a 4xx before any allocation happens. The
// returned error wraps ErrConfigConflict.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}
