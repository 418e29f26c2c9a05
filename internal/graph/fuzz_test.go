package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the text loader: arbitrary input must either
// parse into a valid CSR or return an error — never panic, never produce a
// structure that fails validation.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 3.5\n# comment\n\n2 0 1\n")
	f.Add("bad line\n")
	f.Add("0 0 0\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 NaN\n")
	f.Add("0 1\n0 1\n") // duplicate edge
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid CSR: %v\ninput: %q", err, input)
		}
	})
}

// deltaLockstep pushes batches through ApplyDeltaCfg, Apply and mapApply side
// by side: every batch must either be rejected identically by all three, or
// produce identical logical graphs and a valid physical layout. ApplyDelta and
// Apply share the package's audit, so mapApply — the rules stated without it —
// is what keeps the rejection half an independent check. It returns the
// delta and Apply heads and whether any batch re-laid the graph because the
// tail ran out.
func deltaLockstep(t *testing.T, dg, rg *CSR, cfg DeltaConfig, batches []Batch) (*CSR, *CSR, bool) {
	t.Helper()
	tailRelay := false
	for step, b := range batches {
		nd, errD := dg.ApplyDeltaCfg(b, cfg)
		nr, errA := rg.Apply(b)
		nm, errM := mapApply(rg, b)
		if (errD == nil) != (errA == nil) || (errD == nil) != (errM == nil) {
			t.Fatalf("step %d: acceptance diverges: delta=%v apply=%v map=%v\nbatch: %+v", step, errD, errA, errM, b)
		}
		if errD != nil {
			if errD.Error() != errA.Error() || errD.Error() != errM.Error() {
				t.Fatalf("step %d: rejection messages diverge:\n  delta: %v\n  apply: %v\n  map:   %v", step, errD, errA, errM)
			}
			continue
		}
		if err := nd.Validate(); err != nil {
			t.Fatalf("step %d: delta result invalid: %v\nbatch: %+v", step, err, b)
		}
		de, re, me := nd.Edges(), nr.Edges(), nm.Edges()
		if len(de) != len(re) || len(de) != len(me) {
			t.Fatalf("step %d: edge counts diverge: delta %d, apply %d, map %d", step, len(de), len(re), len(me))
		}
		for i := range de {
			if de[i] != re[i] || de[i] != me[i] {
				t.Fatalf("step %d: edge %d diverges: delta %+v, apply %+v, map %+v", step, i, de[i], re[i], me[i])
			}
		}
		tailRelay = tailRelay || tailExhausted(dg, nd, b, cfg)
		dg, rg = nd, nr
	}
	return dg, rg, tailRelay
}

// fuzzBatches derives three batches from the fuzzed values: the fuzzed one,
// then permutations that hit a now-slacked graph so in-place application
// actually runs.
func fuzzBatches(iu, iv uint16, w float64, du, dv uint16) []Batch {
	return []Batch{
		{
			Inserts: []Edge{{Src: VertexID(iu), Dst: VertexID(iv), Weight: w}},
			Deletes: []Edge{{Src: VertexID(du), Dst: VertexID(dv), Weight: 0}},
		},
		{
			Inserts: []Edge{{Src: VertexID(iv % 16), Dst: VertexID(du % 16), Weight: 2}},
		},
		{
			Deletes: []Edge{{Src: VertexID(iu), Dst: VertexID(iv), Weight: 0}},
		},
	}
}

func fuzzBase() *CSR {
	return MustBuild(16, []Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2},
		{Src: 2, Dst: 3, Weight: 3}, {Src: 3, Dst: 0, Weight: 4},
		{Src: 0, Dst: 5, Weight: 5}, {Src: 5, Dst: 0, Weight: 6},
	})
}

// FuzzApplyDelta is the differential fuzz target for the two mutation paths:
// any batch must either be rejected identically by ApplyDelta and Apply, or
// produce identical logical graphs through both — across a seed-derived
// sequence of batches so the in-place, relocation, and compaction paths all
// get hit (the slack config is derived from the inputs too).
func FuzzApplyDelta(f *testing.F) {
	f.Add(uint16(0), uint16(5), 1.5, uint16(2), uint16(3), uint8(0))
	f.Add(uint16(1), uint16(2), 2.0, uint16(1), uint16(2), uint8(1)) // weight change pair
	f.Add(uint16(9), uint16(9), -1.0, uint16(0), uint16(0), uint8(7))
	f.Add(uint16(1), uint16(2), 2.0, uint16(66), uint16(2), uint8(1)) // delete from a source outside the graph
	f.Fuzz(func(t *testing.T, iu, iv uint16, w float64, du, dv uint16, slack uint8) {
		cfg := DeltaConfig{
			SlackMin:    int(slack % 8),
			SlackFrac:   float64(slack%4) * 0.25,
			CompactFrac: float64(slack%16) * 0.05,
		}
		base := fuzzBase()
		deltaLockstep(t, base, base, cfg, fuzzBatches(iu, iv, w, du, dv))
	})
}

// FuzzApplyDeltaTinySlack runs the same differential with next to no slack:
// SlackMin ∈ {0,1}, a tail of a few slots, and a waste threshold out of
// reach, so overflow can only be answered by relocation or — once the tail is
// used up — by a re-lay. After the fuzzed batches every vertex in turn keeps
// gaining edges (the tail grows with the graph until it can take a
// relocation); the input fails unless both answers were actually given.
func FuzzApplyDeltaTinySlack(f *testing.F) {
	f.Add(uint16(0), uint16(5), 1.5, uint16(2), uint16(3), uint8(0))
	f.Add(uint16(1), uint16(2), 2.0, uint16(1), uint16(2), uint8(1))
	f.Add(uint16(9), uint16(9), -1.0, uint16(0), uint16(0), uint8(7))
	f.Fuzz(func(t *testing.T, iu, iv uint16, w float64, du, dv uint16, slack uint8) {
		cfg := DeltaConfig{
			SlackMin:    int(slack % 2),
			SlackFrac:   0.25 + float64(slack%4)/16,
			CompactFrac: 1e6,
		}
		base := fuzzBase()
		dg, rg, tailRelay := deltaLockstep(t, base, base, cfg, fuzzBatches(iu, iv, w, du, dv))
		for k := VertexID(1); k < 16; k++ {
			for u := VertexID(0); u < 16 && (dg.relocations == 0 || !tailRelay); u++ {
				e := Edge{Src: u, Dst: (u + k) % 16, Weight: 1 + Weight(k)}
				if _, ok := rg.HasEdge(e.Src, e.Dst); ok {
					continue
				}
				var hit bool
				dg, rg, hit = deltaLockstep(t, dg, rg, cfg, []Batch{{Inserts: []Edge{e}}})
				tailRelay = tailRelay || hit
			}
		}
		if dg.relocations == 0 || !tailRelay {
			t.Fatalf("cfg %+v: relocations %d, tail exhausted %v; want both paths taken", cfg, dg.relocations, tailRelay)
		}
	})
}

// FuzzApplyBatch hardens version construction: arbitrary batches against a
// fixed graph must either apply into a valid CSR or be rejected.
func FuzzApplyBatch(f *testing.F) {
	f.Add(uint16(0), uint16(1), 1.5, uint16(2), uint16(3))
	f.Add(uint16(9), uint16(9), -1.0, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, iu, iv uint16, w float64, du, dv uint16) {
		g := MustBuild(16, []Edge{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2},
			{Src: 2, Dst: 3, Weight: 3}, {Src: 3, Dst: 0, Weight: 4},
		})
		b := Batch{
			Inserts: []Edge{{Src: VertexID(iu), Dst: VertexID(iv), Weight: w}},
			Deletes: []Edge{{Src: VertexID(du), Dst: VertexID(dv), Weight: 0}},
		}
		ng, err := g.Apply(b)
		if err != nil {
			return
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("accepted batch produced invalid CSR: %v\nbatch: %+v", err, b)
		}
	})
}
