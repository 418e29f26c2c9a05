package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func filled() *Counters {
	return &Counters{
		EventsProcessed: 1, EventsGenerated: 2, EventsCoalesced: 3,
		VertexReads: 4, VertexWrites: 5, EdgeReads: 6, VerticesReset: 7,
		RequestsIssued: 8, DeletesDiscarded: 9, Rounds: 10, Phases: 11,
		BytesTransferred: 12, BytesUsed: 6, DRAMAccesses: 14, RowHits: 15,
		SpillBytes: 16, Cycles: 17,
	}
}

func TestAddAndReset(t *testing.T) {
	c := filled()
	c.Add(filled())
	if c.EventsProcessed != 2 || c.Cycles != 34 || c.SpillBytes != 32 {
		t.Errorf("Add broken: %+v", c)
	}
	c.Reset()
	if *c != (Counters{}) {
		t.Errorf("Reset left %+v", c)
	}
}

func TestMemoryUtilization(t *testing.T) {
	var c Counters
	if c.MemoryUtilization() != 0 {
		t.Error("zero traffic should report 0")
	}
	c.BytesTransferred = 100
	c.BytesUsed = 50
	if u := c.MemoryUtilization(); u != 0.5 {
		t.Errorf("util = %v", u)
	}
	c.BytesUsed = 200 // clamped
	if u := c.MemoryUtilization(); u != 1 {
		t.Errorf("util = %v, want clamp to 1", u)
	}
}

func TestStringAndTable(t *testing.T) {
	c := filled()
	if s := c.String(); !strings.Contains(s, "events=1") {
		t.Errorf("String = %q", s)
	}
	tab := c.Table()
	for _, want := range []string{"events processed", "vertices reset", "cycles"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table missing %q", want)
		}
	}
	// Zero counters are omitted.
	empty := (&Counters{Cycles: 5}).Table()
	if strings.Contains(empty, "events processed") {
		t.Error("Table should omit zero rows")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean(nil); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("non-positive geomean = %v", g)
	}
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	// Non-positive entries are ignored, matching speedup-table semantics.
	if g := GeoMean([]float64{2, 8, 0}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean with zero = %v, want 4", g)
	}
}

func TestQuickGeoMeanBounds(t *testing.T) {
	// Property: geomean lies between min and max of the positive inputs.
	f := func(xs []float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && x < 1e100 {
				pos = append(pos, x)
			}
		}
		if len(pos) == 0 {
			return true
		}
		g := GeoMean(pos)
		min, max := pos[0], pos[0]
		for _, x := range pos {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
