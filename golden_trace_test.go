package jetstream

// Golden-trace regression test: the sequential engine's processed-event
// stream is fully deterministic — drain rounds visit queue rows in ascending
// vertex order and the stream generator is seeded — so the exact trace is
// recorded once into results/ and every future parallelism-1 run must replay
// it byte for byte. This pins down the sequential substrate that the
// differential tests measure the parallel engine against; an unintended
// change to drain order, coalescing, or recovery phasing shows up here as a
// trace diff before it can silently shift the baseline.
//
// Regenerate after an *intended* semantic change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenTraceSequential .

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jetstream/internal/event"
)

const goldenTracePath = "results/golden_trace_sssp.txt"

// goldenTrace runs the fixed SSSP scenario at parallelism 1 and returns one
// line per processed event: target, source, flags, and the value's exact
// IEEE-754 bits (hex, so the file is stable across formatting changes). The
// cycle model is attached, so the trace pins the paper's event protocol:
// request events and every emitted event, where the host path without a
// cycle model answers requests along the asking edge and drops dominated
// events.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	g := WebCrawl(WebCrawlConfig{Vertices: 120, AvgDegree: 4, Seed: 5})
	sys, err := New(g, SSSP(0), WithTiming(true), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sys.js.Engine().SetTrace(func(ev event.Event) {
		fmt.Fprintf(&buf, "%d %d %d %016x\n", ev.Target, ev.Source, ev.Flags, math.Float64bits(ev.Value))
	})
	sys.RunInitial()
	gen := NewStream(StreamConfig{BatchSize: 12, InsertFrac: 0.5, MaxWeight: 6, Seed: 6})
	for i := 0; i < 4; i++ {
		if _, err := sys.ApplyBatch(gen.Next(sys.Graph())); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

func TestGoldenTraceSequential(t *testing.T) {
	got := goldenTrace(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden trace (run with UPDATE_GOLDEN=1 to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first diverging line for a useful failure message.
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges at event %d: got %q, want %q (%d vs %d lines)",
					i, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("trace length changed: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestGoldenTraceStableAcrossRuns guards the determinism assumption itself:
// two fresh sequential systems must produce the identical trace in-process.
func TestGoldenTraceStableAcrossRuns(t *testing.T) {
	if !bytes.Equal(goldenTrace(t), goldenTrace(t)) {
		t.Fatal("sequential trace differs between two identical runs")
	}
}
