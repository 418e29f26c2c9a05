package stream

import (
	"testing"

	"jetstream/internal/graph"
)

func batchesEqual(a, b graph.Batch) bool {
	if len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
		return false
	}
	for i := range a.Inserts {
		if a.Inserts[i] != b.Inserts[i] {
			return false
		}
	}
	for i := range a.Deletes {
		if a.Deletes[i] != b.Deletes[i] {
			return false
		}
	}
	return true
}

// TestShapeBatchesValid pins the valid-by-construction contract for every
// adversarial shape, directed and symmetric: each drawn batch must Apply
// cleanly and, under Symmetric, keep the graph symmetric.
func TestShapeBatchesValid(t *testing.T) {
	for _, kind := range Shapes() {
		for _, sym := range []bool{false, true} {
			name := kind.String()
			if sym {
				name += "/symmetric"
			}
			t.Run(name, func(t *testing.T) {
				g := graph.RMAT(graph.RMATConfig{Vertices: 200, Edges: 1600, Seed: 21})
				if sym {
					g = graph.Symmetrize(g)
				}
				gen := NewShape(ShapeConfig{Kind: kind, BatchSize: 60, Symmetric: sym, Period: 3, Seed: 31})
				for i := 0; i < 9; i++ {
					b := gen.Next(g)
					ng, err := g.Apply(b)
					if err != nil {
						t.Fatalf("batch %d invalid: %v", i, err)
					}
					if sym {
						for _, e := range ng.Edges() {
							if _, ok := ng.HasEdge(e.Dst, e.Src); !ok {
								t.Fatalf("batch %d broke symmetry at (%d,%d)", i, e.Src, e.Dst)
							}
						}
					}
					g = ng
				}
			})
		}
	}
}

// TestShapeDeterminism: same seed, same graphs, same batches.
func TestShapeDeterminism(t *testing.T) {
	for _, kind := range Shapes() {
		g := graph.RMAT(graph.RMATConfig{Vertices: 150, Edges: 1200, Seed: 17})
		cfg := ShapeConfig{Kind: kind, BatchSize: 50, Seed: 23}
		a, b := NewShape(cfg), NewShape(cfg)
		for i := 0; i < 6; i++ {
			ba, bb := a.Next(g), b.Next(g)
			if !batchesEqual(ba, bb) {
				t.Fatalf("%s: batch %d nondeterministic", kind, i)
			}
			ng, err := g.Apply(ba)
			if err != nil {
				t.Fatalf("%s: batch %d: %v", kind, i, err)
			}
			g = ng
		}
	}
}

// TestDeleteStormStripsVertices: the storm must actually reach the
// last-edge-removal corner — some vertex with edges before the batch has none
// after it.
func TestDeleteStormStripsVertices(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Vertices: 80, Edges: 400, Seed: 29})
	gen := NewShape(ShapeConfig{Kind: DeleteStorm, BatchSize: 120, Seed: 37})
	stripped := false
	for i := 0; i < 8 && !stripped; i++ {
		b := gen.Next(g)
		ng, err := g.Apply(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(graph.VertexID(v)) > 0 && ng.OutDegree(graph.VertexID(v)) == 0 {
				stripped = true
				break
			}
		}
		g = ng
	}
	if !stripped {
		t.Fatal("delete storm never removed a vertex's last out-edge")
	}
}
