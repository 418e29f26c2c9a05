package graph

import (
	"math/rand"
	"testing"
)

// TestMergeMatchesApply checks the merge builder against Apply, the oracle's
// map-and-sort rebuild, on random valid deltas (weight changes included) put
// in (src, dst) order by Fold — over a dense base and over a slacked version
// several ApplyDelta batches down a mutation chain.
func TestMergeMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		base := ErdosRenyi(40, 160, 9, int64(trial))
		if trial%2 == 1 {
			for k := 0; k < 3; k++ {
				next, err := base.ApplyDelta(randomValidBatch(rng, base, 12))
				if err != nil {
					t.Fatalf("trial %d: delta: %v", trial, err)
				}
				base = next
			}
		}
		net, err := Fold(base, 1, []Batch{randomValidBatch(rng, base, 1+rng.Intn(200))})
		if err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		want, err := base.Apply(net)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		got, err := Merge(base, net)
		if err != nil {
			t.Fatalf("trial %d: merge of a valid delta: %v", trial, err)
		}
		checkSame(t, trial, got, want)
	}
}

// TestMergeRefusesDeltaThatDoesNotApply: each way a delta can fail to apply
// to the graph, or fail the (src, dst) order the merge relies on, is refused.
func TestMergeRefusesDeltaThatDoesNotApply(t *testing.T) {
	g := validateTestGraph() // 0→1 w1, 1→2 w2, 2→3 w3, 3→4 w4
	for _, tc := range []struct {
		name string
		b    Batch
	}{
		{"delete of a missing edge", Batch{Deletes: []Edge{{1, 3, 1}}}},
		{"delete of a missing edge past the last", Batch{Deletes: []Edge{{7, 0, 1}}}},
		{"insert of an existing edge", Batch{Inserts: []Edge{{2, 3, 5}}}},
		{"inserts out of order", Batch{Inserts: []Edge{{5, 6, 1}, {0, 2, 1}}}},
		{"duplicate insert", Batch{Inserts: []Edge{{5, 6, 1}, {5, 6, 1}}}},
		{"deletes out of order", Batch{Deletes: []Edge{{2, 3, 3}, {0, 1, 1}}}},
		{"insert out of range", Batch{Inserts: []Edge{{1, 99, 1}}}},
	} {
		if _, err := Merge(g, tc.b); err == nil {
			t.Errorf("%s: merge accepted %+v", tc.name, tc.b)
		}
	}
}
