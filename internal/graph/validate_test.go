package graph

import (
	"math"
	"math/rand"
	"testing"
)

func validateTestGraph() *CSR {
	return MustBuild(8, []Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 2, Dst: 3, Weight: 3},
		{Src: 3, Dst: 4, Weight: 4},
	})
}

func TestSanitizeBatchCatchesEachKind(t *testing.T) {
	g := validateTestGraph()
	cases := []struct {
		name string
		b    Batch
		kind IssueKind
	}{
		{"insert out of range", Batch{Inserts: []Edge{{Src: 0, Dst: 99, Weight: 1}}}, IssueOutOfRange},
		{"delete out of range", Batch{Deletes: []Edge{{Src: 99, Dst: 0}}}, IssueOutOfRange},
		{"nan weight", Batch{Inserts: []Edge{{Src: 0, Dst: 5, Weight: math.NaN()}}}, IssueBadWeight},
		{"inf weight", Batch{Inserts: []Edge{{Src: 0, Dst: 5, Weight: math.Inf(1)}}}, IssueBadWeight},
		{"non-positive weight", Batch{Inserts: []Edge{{Src: 0, Dst: 5, Weight: 0}}}, IssueBadWeight},
		{"duplicate insert", Batch{Inserts: []Edge{{Src: 0, Dst: 5, Weight: 1}, {Src: 0, Dst: 5, Weight: 2}}}, IssueDuplicate},
		{"duplicate delete", Batch{Deletes: []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}}, IssueDuplicate},
		{"delete of absent edge", Batch{Deletes: []Edge{{Src: 4, Dst: 5}}}, IssueMissingDelete},
		{"insert of present edge", Batch{Inserts: []Edge{{Src: 0, Dst: 1, Weight: 9}}}, IssueExistingInsert},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean, issues := g.SanitizeBatch(tc.b)
			if len(issues) != 1 {
				t.Fatalf("got %d issues, want 1: %v", len(issues), issues)
			}
			if issues[0].Kind != tc.kind {
				t.Errorf("kind %v, want %v", issues[0].Kind, tc.kind)
			}
			// The repaired batch must always apply cleanly.
			if _, err := g.Apply(clean); err != nil {
				t.Errorf("sanitized batch does not apply: %v", err)
			}
		})
	}
}

func TestSanitizeBatchNormalizesDeleteWeights(t *testing.T) {
	g := validateTestGraph()
	// A stale or corrupted delete weight must be replaced by the stored edge
	// weight so it cannot poison the value-aware recovery.
	clean, issues := g.SanitizeBatch(Batch{Deletes: []Edge{{Src: 1, Dst: 2, Weight: 777}}})
	if len(issues) != 0 {
		t.Fatalf("unexpected issues: %v", issues)
	}
	if len(clean.Deletes) != 1 || clean.Deletes[0].Weight != 2 {
		t.Errorf("delete weight not normalized: %+v", clean.Deletes)
	}
}

func TestSanitizeBatchAllowsWeightModification(t *testing.T) {
	g := validateTestGraph()
	// Delete + insert of the same pair in one batch is the paper's
	// weight-modification idiom (§2.1) and must stay legal.
	b := Batch{
		Deletes: []Edge{{Src: 0, Dst: 1}},
		Inserts: []Edge{{Src: 0, Dst: 1, Weight: 10}},
	}
	clean, issues := g.SanitizeBatch(b)
	if len(issues) != 0 {
		t.Fatalf("weight modification flagged: %v", issues)
	}
	ng, err := g.Apply(clean)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := ng.HasEdge(0, 1); !ok || w != 10 {
		t.Errorf("modified edge weight %v (present=%v), want 10", w, ok)
	}
}

func TestSanitizeBatchDoesNotMutateInput(t *testing.T) {
	g := validateTestGraph()
	b := Batch{
		Inserts: []Edge{{Src: 0, Dst: 5, Weight: 1}, {Src: 0, Dst: 99, Weight: 1}},
		Deletes: []Edge{{Src: 0, Dst: 1, Weight: 777}},
	}
	g.SanitizeBatch(b)
	if b.Deletes[0].Weight != 777 || len(b.Inserts) != 2 {
		t.Errorf("input batch was modified: %+v", b)
	}
}

func TestIngestPolicyStrings(t *testing.T) {
	if Strict.String() != "strict" || Repair.String() != "repair" {
		t.Errorf("policy strings: %v, %v", Strict, Repair)
	}
	for k := IssueOutOfRange; k <= IssueExistingInsert; k++ {
		if k.String() == "" {
			t.Errorf("IssueKind(%d) has empty string", int(k))
		}
	}
}

// sanitizeByMaps is the audit as it stood before it was folded into the
// ordered-ops routine: one pass over the deletes, one over the inserts, a set
// per list. The reference for what is kept, what is dropped and why.
func sanitizeByMaps(g *CSR, b Batch) (Batch, []BatchIssue) {
	var issues []BatchIssue
	var out Batch
	type key struct{ u, v VertexID }
	keptDel := make(map[key]bool, len(b.Deletes))
	for _, e := range b.Deletes {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			issues = append(issues, BatchIssue{IssueOutOfRange, e, true})
			continue
		}
		k := key{e.Src, e.Dst}
		if keptDel[k] {
			issues = append(issues, BatchIssue{IssueDuplicate, e, true})
			continue
		}
		w, ok := g.HasEdge(e.Src, e.Dst)
		if !ok {
			issues = append(issues, BatchIssue{IssueMissingDelete, e, true})
			continue
		}
		keptDel[k] = true
		out.Deletes = append(out.Deletes, Edge{Src: e.Src, Dst: e.Dst, Weight: w})
	}
	keptIns := make(map[key]bool, len(b.Inserts))
	for _, e := range b.Inserts {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			issues = append(issues, BatchIssue{IssueOutOfRange, e, false})
			continue
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
			issues = append(issues, BatchIssue{IssueBadWeight, e, false})
			continue
		}
		k := key{e.Src, e.Dst}
		if keptIns[k] {
			issues = append(issues, BatchIssue{IssueDuplicate, e, false})
			continue
		}
		if _, ok := g.HasEdge(e.Src, e.Dst); ok && !keptDel[k] {
			issues = append(issues, BatchIssue{IssueExistingInsert, e, false})
			continue
		}
		keptIns[k] = true
		out.Inserts = append(out.Inserts, e)
	}
	return out, issues
}

// dirtyBatch draws a batch in which every rule is broken somewhere, several
// times over and in combination: pairs repeated within and across the two
// lists, endpoints past the vertex count, weights that are not weights,
// deletes of absent and inserts of present edges, over a vertex range small
// enough for the collisions to happen by themselves.
func dirtyBatch(rng *rand.Rand, g *CSR, updates int) Batch {
	var b Batch
	n := g.NumVertices()
	weights := []Weight{1, 2.5, 0, -3, math.NaN(), math.Inf(1), 7}
	pair := func() (VertexID, VertexID) {
		switch rng.Intn(8) {
		case 0: // out of range, either end
			return VertexID(rng.Intn(n + 3)), VertexID(n + rng.Intn(3))
		case 1, 2, 3: // an edge of the graph
			if g.NumEdges() > 0 {
				e := g.EdgeAt(rng.Intn(g.NumEdges()))
				return e.Src, e.Dst
			}
		case 4: // a pair already in the batch
			if all := append(append([]Edge(nil), b.Deletes...), b.Inserts...); len(all) > 0 {
				e := all[rng.Intn(len(all))]
				return e.Src, e.Dst
			}
		}
		return VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
	}
	for i := 0; i < updates; i++ {
		u, v := pair()
		e := Edge{u, v, weights[rng.Intn(len(weights))]}
		if rng.Intn(2) == 0 {
			b.Deletes = append(b.Deletes, e)
		} else {
			b.Inserts = append(b.Inserts, e)
		}
	}
	return b
}

// edgesBitEqual compares edge lists with weights taken bit for bit (the dirty
// batches carry NaN, and ApplyDelta stores whatever weight it is given).
func edgesBitEqual(a, b []Edge) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

func issuesEqual(a, b []BatchIssue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Delete != b[i].Delete || !edgesBitEqual([]Edge{a[i].Edge}, []Edge{b[i].Edge}) {
			return false
		}
	}
	return true
}

// TestAuditMatchesMapAudit holds the one audit over ordered ops against the
// two routines it replaced, on batches that break every rule at once, against
// a dense build, a live slacked head and a superseded version: SanitizeBatch
// keeps and drops the same updates for the same reasons, reports them in
// batch order and normalizes the same delete weights as the map-based audit;
// ApplyDelta rejects with Apply's message and mapApply's, or accepts exactly
// when both do (Apply shares the audit, so mapApply is the independent side).
func TestAuditMatchesMapAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dense := RMAT(RMATConfig{Vertices: 24, Edges: 90, Seed: 3})
	live, err := dense.ApplyDelta(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	old := live
	if live, err = live.ApplyDelta(randomValidBatch(rng, live, 20)); err != nil {
		t.Fatal(err)
	}
	rejected, repaired := 0, 0
	for name, g := range map[string]*CSR{"dense": dense, "live": live, "superseded": old} {
		for round := 0; round < 400; round++ {
			b := dirtyBatch(rng, g, 1+rng.Intn(12))
			wantClean, wantIssues := sanitizeByMaps(g, b)
			clean, issues := g.SanitizeBatch(b)
			if !issuesEqual(issues, wantIssues) {
				t.Fatalf("%s: batch %+v\n issues %v\n want   %v", name, b, issues, wantIssues)
			}
			if !edgesBitEqual(clean.Deletes, wantClean.Deletes) || !edgesBitEqual(clean.Inserts, wantClean.Inserts) {
				t.Fatalf("%s: batch %+v\n repaired to %+v\n want        %+v", name, b, clean, wantClean)
			}
			if len(issues) > 0 {
				repaired++
			}
			for _, x := range []Batch{b, clean} {
				ng, errDelta := g.ApplyDelta(x)
				_, errApply := g.Apply(x)
				_, errMap := mapApply(g, x)
				if !sameOutcome(errDelta, errApply) || !sameOutcome(errDelta, errMap) {
					t.Fatalf("%s: batch %+v\n delta: %v\n apply: %v\n map:   %v", name, x, errDelta, errApply, errMap)
				}
				if errDelta != nil {
					rejected++
				} else if name == "live" {
					g = ng // an accepted batch supersedes the head; follow it
				}
			}
		}
	}
	if rejected < 300 || repaired < 300 {
		t.Fatalf("run too tame: %d rejections, %d repairs", rejected, repaired)
	}
}

// sameOutcome reports whether two batch applications both accepted, or both
// rejected with the same message.
func sameOutcome(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
