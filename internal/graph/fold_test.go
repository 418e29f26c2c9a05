package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestFoldNetDelta pins each rule of the fold on one pair at a time.
func TestFoldNetDelta(t *testing.T) {
	g := validateTestGraph() // 0→1 w1, 1→2 w2, 2→3 w3, 3→4 w4
	cases := []struct {
		name string
		recs []Batch
		want Batch
	}{
		{"insert then delete cancels",
			[]Batch{{Inserts: []Edge{{5, 6, 2}}}, {Deletes: []Edge{{5, 6, 0}}}},
			Batch{}},
		{"delete then insert is a weight change",
			[]Batch{{Deletes: []Edge{{0, 1, 0}}}, {Inserts: []Edge{{0, 1, 7}}}},
			Batch{Deletes: []Edge{{0, 1, 1}}, Inserts: []Edge{{0, 1, 7}}}},
		{"a weight that comes back bit-equal cancels",
			[]Batch{{Deletes: []Edge{{1, 2, 0}}}, {Inserts: []Edge{{1, 2, 2}}}},
			Batch{}},
		{"a net delete carries the stored weight",
			[]Batch{{Deletes: []Edge{{2, 3, 99}}}},
			Batch{Deletes: []Edge{{2, 3, 3}}}},
		{"an in-record weight change stays one",
			[]Batch{{Deletes: []Edge{{3, 4, 0}}, Inserts: []Edge{{3, 4, 5}}}},
			Batch{Deletes: []Edge{{3, 4, 4}}, Inserts: []Edge{{3, 4, 5}}}},
		{"insert, delete, insert keeps the last weight",
			[]Batch{{Inserts: []Edge{{6, 7, 1}}}, {Deletes: []Edge{{6, 7, 0}}}, {Inserts: []Edge{{6, 7, 3}}}},
			Batch{Inserts: []Edge{{6, 7, 3}}}},
		{"output in (src,dst) order",
			[]Batch{{Inserts: []Edge{{7, 0, 1}, {5, 5, 1}}}, {Inserts: []Edge{{0, 7, 1}}, Deletes: []Edge{{3, 4, 0}, {0, 1, 0}}}},
			Batch{Deletes: []Edge{{0, 1, 1}, {3, 4, 4}}, Inserts: []Edge{{0, 7, 1}, {5, 5, 1}, {7, 0, 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Fold(g, 1, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fold = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestFoldRefusesRecordThatDoesNotApply: each SanitizeBatch rule, checked
// against the edge's state after the records before it, refuses the fold
// with a *FoldError naming the earliest bad record and unwrapping to its
// *BatchError.
func TestFoldRefusesRecordThatDoesNotApply(t *testing.T) {
	g := validateTestGraph()
	cases := []struct {
		name string
		recs []Batch
		seq  uint64
		want []BatchIssue
	}{
		{"delete of an edge an earlier record deleted",
			[]Batch{{Deletes: []Edge{{0, 1, 0}}}, {}, {Deletes: []Edge{{0, 1, 0}}}},
			12, []BatchIssue{{IssueMissingDelete, Edge{0, 1, 0}, true}}},
		{"insert of an edge an earlier record inserted",
			[]Batch{{Inserts: []Edge{{5, 6, 1}}}, {Inserts: []Edge{{5, 6, 2}}}},
			11, []BatchIssue{{IssueExistingInsert, Edge{5, 6, 2}, false}}},
		{"duplicate insert within a record",
			[]Batch{{Inserts: []Edge{{5, 6, 1}, {5, 6, 2}}}},
			10, []BatchIssue{{IssueDuplicate, Edge{5, 6, 2}, false}}},
		{"duplicate delete within a record",
			[]Batch{{Deletes: []Edge{{0, 1, 0}, {0, 1, 0}}}},
			10, []BatchIssue{{IssueDuplicate, Edge{0, 1, 0}, true}}},
		{"bad weight and out of range, in batch order",
			[]Batch{{}, {Inserts: []Edge{{0, 99, 1}, {5, 6, -1}}, Deletes: []Edge{{9, 0, 0}}}, {Deletes: []Edge{{7, 7, 0}}}},
			11, []BatchIssue{{IssueOutOfRange, Edge{9, 0, 0}, true}, {IssueOutOfRange, Edge{0, 99, 1}, false}, {IssueBadWeight, Edge{5, 6, -1}, false}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Fold(g, 10, tc.recs)
			var fe *FoldError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *FoldError", err)
			}
			if fe.Seq != tc.seq || !reflect.DeepEqual(fe.Issues, tc.want) {
				t.Fatalf("refusal = record %d %v, want record %d %v", fe.Seq, fe.Issues, tc.seq, tc.want)
			}
			var be *BatchError
			if !errors.As(err, &be) || !reflect.DeepEqual(be.Issues, tc.want) {
				t.Fatalf("refusal does not unwrap to the record's *BatchError: %v", err)
			}
		})
	}
}

// TestFoldMatchesSequentialApply folds random valid record sequences — each
// record sanitized against the version the records before it leave — and
// checks that the net delta takes the base to the same edge set, and that
// the record SanitizeBatch would refuse is the one Fold refuses.
func TestFoldMatchesSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10
	draw := func() Batch {
		var b Batch
		for k := rng.Intn(12); k > 0; k-- {
			// Vertex n is out of range, weight 0 is bad.
			e := Edge{VertexID(rng.Intn(n + 1)), VertexID(rng.Intn(n)), float64(rng.Intn(4))}
			if rng.Intn(2) == 0 {
				b.Deletes = append(b.Deletes, e)
			} else {
				b.Inserts = append(b.Inserts, e)
			}
		}
		return b
	}
	for trial := 0; trial < 300; trial++ {
		base := ErdosRenyi(n, 30, 4, int64(trial))
		cur := base
		var recs []Batch
		for r := 0; r < 1+rng.Intn(6); r++ {
			clean, _ := cur.SanitizeBatch(draw())
			next, err := cur.Apply(clean)
			if err != nil {
				t.Fatalf("trial %d: sequential apply: %v", trial, err)
			}
			recs = append(recs, clean)
			cur = next
		}
		net, err := Fold(base, 1, recs)
		if err != nil {
			t.Fatalf("trial %d: fold of valid records: %v", trial, err)
		}
		got, err := base.Apply(net)
		if err != nil {
			t.Fatalf("trial %d: net delta does not apply: %v", trial, err)
		}
		if !edgesEqual(got.Edges(), cur.Edges()) {
			t.Fatalf("trial %d: folded edges %v, sequential %v", trial, got.Edges(), cur.Edges())
		}
		for _, e := range net.Deletes {
			if w, _ := base.HasEdge(e.Src, e.Dst); math.Float64bits(w) != math.Float64bits(e.Weight) {
				t.Fatalf("trial %d: net delete (%d,%d) carries %v, stored %v", trial, e.Src, e.Dst, e.Weight, w)
			}
		}

		raw := draw()
		_, issues := cur.SanitizeBatch(raw)
		_, err = Fold(base, 1, append(recs, raw))
		var fe *FoldError
		switch {
		case len(issues) == 0 && err != nil:
			t.Fatalf("trial %d: fold refused a record SanitizeBatch passes: %v", trial, err)
		case len(issues) > 0 && (!errors.As(err, &fe) || fe.Seq != uint64(len(recs)+1) || !reflect.DeepEqual(fe.Issues, issues)):
			t.Fatalf("trial %d: fold refusal %v, SanitizeBatch issues %v", trial, err, issues)
		}
	}
}

func TestBuildRefusesBadWeights(t *testing.T) {
	for _, w := range []Weight{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		_, err := Build(3, []Edge{{0, 1, 1}, {1, 2, w}})
		var be *BatchError
		if !errors.As(err, &be) || len(be.Issues) != 1 || be.Issues[0].Kind != IssueBadWeight {
			t.Fatalf("weight %v: err = %v, want one IssueBadWeight", w, err)
		}
	}
	g, err := MustBuild(3, []Edge{{0, 1, 1}}).Apply(Batch{Inserts: []Edge{{1, 2, -1}}})
	if err != nil {
		t.Fatal(err)
	}
	var be *BatchError
	if err := g.CheckWeights(); !errors.As(err, &be) || be.Issues[0].Edge != (Edge{1, 2, -1}) {
		t.Fatalf("CheckWeights = %v, want the (1,2,-1) edge", err)
	}
}
