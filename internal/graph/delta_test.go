package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// randomValidBatch draws a batch valid against g: deletes name distinct
// existing edges, inserts name absent pairs, and a fraction of the deletes
// are re-inserted with a new weight (weight changes).
func randomValidBatch(rng *rand.Rand, g *CSR, updates int) Batch {
	var b Batch
	n := g.NumVertices()
	taken := make(map[[2]VertexID]bool, updates)
	delWant := updates / 3
	for tries := 0; len(b.Deletes) < delWant && tries < delWant*32 && g.NumEdges() > 0; tries++ {
		e := g.EdgeAt(rng.Intn(g.NumEdges()))
		k := [2]VertexID{e.Src, e.Dst}
		if taken[k] {
			continue
		}
		taken[k] = true
		b.Deletes = append(b.Deletes, e)
		if rng.Intn(4) == 0 { // weight change: delete + re-insert
			b.Inserts = append(b.Inserts, Edge{e.Src, e.Dst, 1 + rng.Float64()*9})
		}
	}
	for tries := 0; b.Size() < updates && tries < updates*32; tries++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		k := [2]VertexID{u, v}
		if u == v || taken[k] {
			continue
		}
		if _, ok := g.HasEdge(u, v); ok {
			continue
		}
		taken[k] = true
		b.Inserts = append(b.Inserts, Edge{u, v, 1 + rng.Float64()*9})
	}
	return b
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSame asserts that the delta-mutated version dg and the rebuilt version
// rg expose the identical logical graph through every public accessor.
func checkSame(t *testing.T, step int, dg, rg *CSR) {
	t.Helper()
	if err := dg.Validate(); err != nil {
		t.Fatalf("step %d: delta version invalid: %v", step, err)
	}
	if !edgesEqual(dg.Edges(), rg.Edges()) {
		t.Fatalf("step %d: delta and rebuild edge lists diverge", step)
	}
	if dg.NumEdges() != rg.NumEdges() || dg.Symmetric() != rg.Symmetric() {
		t.Fatalf("step %d: aggregates diverge: E %d/%d symmetric %v/%v",
			step, dg.NumEdges(), rg.NumEdges(), dg.Symmetric(), rg.Symmetric())
	}
	for v := 0; v < dg.NumVertices(); v++ {
		id := VertexID(v)
		if dg.OutDegree(id) != rg.OutDegree(id) || dg.InDegree(id) != rg.InDegree(id) {
			t.Fatalf("step %d: degree mismatch at %d", step, v)
		}
		dw, rw := dg.OutWeightSum(id), rg.OutWeightSum(id)
		if diff := dw - rw; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("step %d: OutWeightSum(%d) = %g, want %g", step, v, dw, rw)
		}
	}
}

// deltaConfigs exercises the in-place path, relocation into the tail, tail
// exhaustion (no or next to no headroom), and an aggressive compaction
// cadence. relocate and tailRelay name the layout paths a run over the
// config must take; a run that passes without them tested something else.
var deltaConfigs = map[string]struct {
	cfg                 DeltaConfig
	relocate, tailRelay bool
}{
	"default":        {cfg: DefaultDeltaConfig(), relocate: true},
	"no_slack":       {cfg: DeltaConfig{SlackMin: 0, SlackFrac: 0, CompactFrac: 1}, tailRelay: true},
	"tight_slack":    {cfg: DeltaConfig{SlackMin: 1, SlackFrac: 0, CompactFrac: 1}, tailRelay: true},
	"tiny_tail_min0": {cfg: DeltaConfig{SlackMin: 0, SlackFrac: 0.3, CompactFrac: 100}, relocate: true, tailRelay: true},
	"tiny_tail_min1": {cfg: DeltaConfig{SlackMin: 1, SlackFrac: 0.05, CompactFrac: 100}, relocate: true, tailRelay: true},
	"fast_compact":   {cfg: DeltaConfig{SlackMin: 4, SlackFrac: 0.125, CompactFrac: 0.01}},
	"huge_slack":     {cfg: DeltaConfig{SlackMin: 64, SlackFrac: 1, CompactFrac: 10}},
	"prop_only":      {cfg: DeltaConfig{SlackMin: 0, SlackFrac: 0.5, CompactFrac: 0.5}, relocate: true},
	"compact_floor":  {cfg: DeltaConfig{SlackMin: 2, SlackFrac: 0, CompactFrac: 0}},
}

// tailExhausted reports whether the batch that turned g into ng re-laid the
// graph although g had a slacked layout and its waste was under the
// threshold — which leaves only one reason: the tail could not take the
// batch's relocations.
func tailExhausted(g, ng *CSR, b Batch, cfg DeltaConfig) bool {
	return ng.relayouts > g.relayouts && g.out.len != nil && !g.ver.frozen &&
		g.ver.edits+b.Size()+g.out.dead+g.in.dead <= compactThreshold(cfg, g.m)
}

// TestApplyDeltaMatchesApply runs randomized insert/delete sequences through
// ApplyDeltaCfg and the rebuild Apply in lockstep and requires identical
// logical graphs (and a valid physical layout) at every step, across slack
// configurations that force the in-place, relocation, tail-exhaustion, and
// compaction-boundary paths.
func TestApplyDeltaMatchesApply(t *testing.T) {
	for name, tc := range deltaConfigs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			base := RMAT(RMATConfig{Vertices: 300, Edges: 1800, Seed: 11})
			dg, rg := base, base
			tailRelay := false
			for step := 0; step < 25; step++ {
				b := randomValidBatch(rng, rg, 40)
				nd, err := dg.ApplyDeltaCfg(b, tc.cfg)
				if err != nil {
					t.Fatalf("step %d: ApplyDeltaCfg: %v", step, err)
				}
				nr, err := rg.Apply(b)
				if err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				checkSame(t, step, nd, nr)
				tailRelay = tailRelay || tailExhausted(dg, nd, b, tc.cfg)
				dg, rg = nd, nr
			}
			t.Logf("relocations %d, re-lays %d, tail exhausted %v", dg.relocations, dg.relayouts, tailRelay)
			if tc.relocate && dg.relocations == 0 {
				t.Error("no vertex was ever relocated")
			}
			if tc.tailRelay && !tailRelay {
				t.Error("the tail headroom was never exhausted")
			}
		})
	}
}

// TestInlineMatchesRebuildAllCaps runs the slab layout at SlackMin 4,
// SlackFrac 0.25, CompactFrac 0.25 against the rebuild oracle on an RMAT
// graph. The name and the slab0 case date from when the layout also had
// inline caps 1-4; the uniform slab is the one representation left, so it
// must report no vertex stored outside it.
func TestInlineMatchesRebuildAllCaps(t *testing.T) {
	cfg := DeltaConfig{SlackMin: 4, SlackFrac: 0.25, CompactFrac: 0.25}
	t.Run("slab0", func(t *testing.T) {
		rng := rand.New(rand.NewSource(400))
		base := RMAT(RMATConfig{Vertices: 250, Edges: 1500, Seed: 17})
		dg, rg := base, base
		for step := 0; step < 20; step++ {
			b := randomValidBatch(rng, rg, 30)
			nd, err := dg.ApplyDeltaCfg(b, cfg)
			if err != nil {
				t.Fatalf("step %d: ApplyDeltaCfg: %v", step, err)
			}
			nr, err := rg.Apply(b)
			if err != nil {
				t.Fatalf("step %d: Apply: %v", step, err)
			}
			checkSame(t, step, nd, nr)
			if out, in, n := nd.RepresentationMix(); out != 0 || in != 0 || n != nd.NumVertices() {
				t.Fatalf("step %d: uniform slab reports %d out / %d in of %d vertices outside the slab", step, out, in, n)
			}
			dg, rg = nd, nr
		}
	})
}

// TestOldVersionsStayReadable pins the versioned pointer-swap contract: after
// a chain of delta batches, every superseded version still serves its exact
// historical edge set (the recovery engine reads the old and new graph
// versions simultaneously during a batch).
func TestOldVersionsStayReadable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := WebCrawl(WebCrawlConfig{Vertices: 200, AvgDegree: 4, Seed: 5})
	versions := []*CSR{base}
	snapshots := [][]Edge{base.Edges()}

	g := base
	for step := 0; step < 12; step++ {
		b := randomValidBatch(rng, g, 30)
		ng, err := g.ApplyDelta(b)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g = ng
		versions = append(versions, g)
		snapshots = append(snapshots, g.Edges())
	}
	for i, v := range versions {
		if err := v.Validate(); err != nil {
			t.Fatalf("version %d invalid after later mutations: %v", i, err)
		}
		if !edgesEqual(v.Edges(), snapshots[i]) {
			t.Fatalf("version %d no longer serves its historical edge set", i)
		}
		// Spot-check the random-access readers on the frozen version.
		for k := 0; k < 20 && v.NumEdges() > 0; k++ {
			e := v.EdgeAt(rng.Intn(v.NumEdges()))
			if w, ok := v.HasEdge(e.Src, e.Dst); !ok || w != e.Weight {
				t.Fatalf("version %d: EdgeAt/HasEdge disagree on (%d,%d)", i, e.Src, e.Dst)
			}
		}
	}
}

// TestApplyDeltaWeightChange covers the delete+insert pair on one edge: the
// paper's §2.1 weight-modification encoding must land the new weight exactly
// once in both directions.
func TestApplyDeltaWeightChange(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1, 5}, {0, 2, 7}, {3, 1, 2}})
	sl, err := g.ApplyDelta(Batch{}) // lay out with slack: the re-lay of an empty batch
	if err != nil {
		t.Fatal(err)
	}
	ng, err := sl.ApplyDelta(Batch{
		Deletes: []Edge{{0, 1, 5}},
		Inserts: []Edge{{0, 1, 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := ng.HasEdge(0, 1); !ok || w != 9 {
		t.Fatalf("HasEdge(0,1) = %v,%v, want 9,true", w, ok)
	}
	if got := ng.OutWeightSum(0); got != 16 {
		t.Fatalf("OutWeightSum(0) = %v, want 16", got)
	}
	if w, ok := sl.HasEdge(0, 1); !ok || w != 5 {
		t.Fatalf("old version HasEdge(0,1) = %v,%v, want 5,true", w, ok)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaSymmetryMaintenance checks the incremental symmetric bit
// against mirrored and one-sided updates on a slacked graph.
func TestApplyDeltaSymmetryMaintenance(t *testing.T) {
	g := Symmetrize(MustBuild(5, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}}))
	sl, err := g.ApplyDelta(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Symmetric() {
		t.Fatal("slackified symmetric graph lost the symmetric bit")
	}
	oneSided, err := sl.ApplyDelta(Batch{Inserts: []Edge{{0, 3, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if oneSided.Symmetric() {
		t.Fatal("one-sided insert kept the symmetric bit")
	}
	restored, err := oneSided.ApplyDelta(Batch{Inserts: []Edge{{3, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Symmetric() {
		t.Fatal("mirroring insert did not restore the symmetric bit")
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaValidationErrors pins that the delta path rejects exactly
// what Apply rejects, with matching messages, leaving the receiver usable.
func TestApplyDeltaValidationErrors(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1, 1}, {1, 2, 2}})
	cases := []struct {
		name string
		b    Batch
		want string
	}{
		{"duplicate delete", Batch{Deletes: []Edge{{0, 1, 1}, {0, 1, 1}}}, "duplicate delete"},
		{"missing delete", Batch{Deletes: []Edge{{2, 0, 1}}}, "delete of missing edge"},
		{"insert out of range", Batch{Inserts: []Edge{{0, 9, 1}}}, "out of range"},
		{"duplicate insert", Batch{Inserts: []Edge{{2, 3, 1}, {2, 3, 2}}}, "duplicate insert"},
		{"insert existing", Batch{Inserts: []Edge{{0, 1, 5}}}, "insert of existing edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errDelta := g.ApplyDelta(tc.b)
			_, errApply := g.Apply(tc.b)
			if errDelta == nil || errApply == nil {
				t.Fatalf("errors: delta=%v apply=%v, want both non-nil", errDelta, errApply)
			}
			if errDelta.Error() != errApply.Error() {
				t.Fatalf("messages diverge:\n  delta: %v\n  apply: %v", errDelta, errApply)
			}
			if !strings.Contains(errDelta.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", errDelta, tc.want)
			}
		})
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("receiver corrupted by rejected batches: %v", err)
	}
}

// TestApplyDeltaCompactionResetsEdits observes the amortization machinery
// directly: in-place batches accumulate the edit counter, and crossing the
// threshold triggers a compacting rebuild that resets it and restores slack.
func TestApplyDeltaCompactionResetsEdits(t *testing.T) {
	cfg := DeltaConfig{SlackMin: 8, SlackFrac: 0.5, CompactFrac: 0.05}
	g := RMAT(RMATConfig{Vertices: 200, Edges: 1200, Seed: 2})
	rng := rand.New(rand.NewSource(9))

	sl, err := g.ApplyDeltaCfg(Batch{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sl.ver == nil || sl.ver.edits != 0 {
		t.Fatal("slackified base must start with zero accumulated edits")
	}
	sawInPlace, sawCompact := false, false
	cur := sl
	for step := 0; step < 30; step++ {
		before := 0
		if cur.ver != nil {
			before = cur.ver.edits
		}
		b := randomValidBatch(rng, cur, 12)
		ng, err := cur.ApplyDeltaCfg(b, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		switch {
		case ng.ver.edits == before+b.Size() && b.Size() > 0:
			sawInPlace = true
		case ng.ver.edits == 0:
			sawCompact = true
		}
		cur = ng
	}
	if !sawInPlace || !sawCompact {
		t.Fatalf("wanted both paths exercised: inPlace=%v compact=%v", sawInPlace, sawCompact)
	}
}

// TestApplyDeltaOnFrozenVersion checks that mutating a superseded version is
// legal and produces an independent (rebuilt) history branch.
func TestApplyDeltaOnFrozenVersion(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}})
	sl, err := g.ApplyDelta(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sl.ApplyDelta(Batch{Inserts: []Edge{{0, 2, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	// sl is now frozen; branch a different future from it.
	branch, err := sl.ApplyDelta(Batch{Inserts: []Edge{{3, 0, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := branch.HasEdge(0, 2); ok {
		t.Fatal("branch sees the other branch's insert")
	}
	if w, ok := branch.HasEdge(3, 0); !ok || w != 9 {
		t.Fatal("branch lost its own insert")
	}
	if err := branch.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeAtSlacked checks rank-ordered edge access against Edges() on live
// slacked and frozen versions — the stream generator's sampling contract.
func TestEdgeAtSlacked(t *testing.T) {
	g := Grid(GridConfig{Rows: 8, Cols: 8, Seed: 4})
	sl, err := g.ApplyDelta(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := sl.ApplyDelta(Batch{Inserts: []Edge{{0, 63, 2}, {5, 40, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*CSR{"live": ng, "frozen": sl} {
		es := v.Edges()
		if len(es) != v.NumEdges() {
			t.Fatalf("%s: Edges() length %d != NumEdges %d", name, len(es), v.NumEdges())
		}
		for i, want := range es {
			if got := v.EdgeAt(i); got != want {
				t.Fatalf("%s: EdgeAt(%d) = %+v, want %+v", name, i, got, want)
			}
		}
	}
}
