package stream

import (
	"math/rand"
	"testing"

	"jetstream/internal/graph"
)

func TestBatchValidity(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 300, Edges: 2500, Seed: 1})
	gen := NewGenerator(Config{BatchSize: 100, InsertFrac: 0.7, Seed: 2})
	for i := 0; i < 10; i++ {
		b := gen.Next(g)
		ng, err := g.Apply(b)
		if err != nil {
			t.Fatalf("batch %d invalid: %v", i, err)
		}
		if len(b.Inserts) == 0 || len(b.Deletes) == 0 {
			t.Fatalf("batch %d degenerate: %d ins, %d del", i, len(b.Inserts), len(b.Deletes))
		}
		// ~70:30 split.
		frac := float64(len(b.Inserts)) / float64(b.Size())
		if frac < 0.6 || frac > 0.8 {
			t.Errorf("batch %d insert fraction %.2f, want ~0.7", i, frac)
		}
		g = ng
	}
}

func TestBatchDeterminism(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1500, Seed: 3})
	a := NewGenerator(Config{BatchSize: 50, InsertFrac: 0.5, Seed: 9}).Next(g)
	b := NewGenerator(Config{BatchSize: 50, InsertFrac: 0.5, Seed: 9}).Next(g)
	if len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
		t.Fatal("nondeterministic batch sizes")
	}
	for i := range a.Inserts {
		if a.Inserts[i] != b.Inserts[i] {
			t.Fatal("nondeterministic inserts")
		}
	}
}

func TestSymmetricBatchesKeepGraphSymmetric(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(graph.RMATConfig{Vertices: 150, Edges: 900, Seed: 5}))
	gen := NewGenerator(Config{BatchSize: 60, InsertFrac: 0.5, Symmetric: true, Seed: 6})
	for i := 0; i < 6; i++ {
		b := gen.Next(g)
		ng, err := g.Apply(b)
		if err != nil {
			t.Fatalf("batch %d invalid: %v", i, err)
		}
		for _, e := range ng.Edges() {
			if _, ok := ng.HasEdge(e.Dst, e.Src); !ok {
				t.Fatalf("batch %d broke symmetry at (%d,%d)", i, e.Src, e.Dst)
			}
		}
		g = ng
	}
}

func TestInsertOnlyAndDeleteOnly(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1500, Seed: 7})
	ins := NewGenerator(Config{BatchSize: 40, InsertFrac: 1, Seed: 8}).Next(g)
	if len(ins.Deletes) != 0 || len(ins.Inserts) != 40 {
		t.Errorf("insert-only: %d ins %d del", len(ins.Inserts), len(ins.Deletes))
	}
	del := NewGenerator(Config{BatchSize: 40, InsertFrac: 0, Seed: 8}).Next(g)
	if len(del.Inserts) != 0 || len(del.Deletes) != 40 {
		t.Errorf("delete-only: %d ins %d del", len(del.Inserts), len(del.Deletes))
	}
}

func TestDeleteCapPreservesGraph(t *testing.T) {
	// A tiny graph cannot satisfy a huge delete request; the generator must
	// cap deletions rather than drain the graph.
	g := graph.MustBuild(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1}})
	b := NewGenerator(Config{BatchSize: 100, InsertFrac: 0, Seed: 10}).Next(g)
	if len(b.Deletes) > 2 {
		t.Errorf("deleted %d of 4 edges; cap is half", len(b.Deletes))
	}
}

// TestInjectedRandMatchesSeededConstructor pins what NewGenerator builds: a
// generator with the default weight bound drawing from a source seeded with
// cfg.Seed and nothing else.
func TestInjectedRandMatchesSeededConstructor(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1500, Seed: 3})
	cfg := Config{BatchSize: 50, InsertFrac: 0.5, Seed: 9}
	a := NewGenerator(cfg).Next(g)
	withDefaults := cfg
	withDefaults.MaxWeight = 64
	b := (&Generator{cfg: withDefaults, rng: rand.New(rand.NewSource(cfg.Seed))}).Next(g)
	if len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
		t.Fatal("injected rng diverged from seeded constructor")
	}
	for i := range a.Inserts {
		if a.Inserts[i] != b.Inserts[i] {
			t.Fatal("injected rng produced different inserts")
		}
	}
	for i := range a.Deletes {
		if a.Deletes[i] != b.Deletes[i] {
			t.Fatal("injected rng produced different deletes")
		}
	}
}
