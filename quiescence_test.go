package jetstream

// Property-based quiescence tests: adversarial batch schedules must always
// drive the parallel engine to termination, with event accounting that obeys
// the queue's conservation law and stays within the coalescing-allowed
// envelope of the sequential run. The schedules target the failure modes of
// a distributed termination protocol — hot-vertex skew (every worker funnels
// events at one owner, maximal cross-partition traffic), delete-heavy streams
// (recovery phases dominate), and empty batches (quiescence from quiescence).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

const quiescenceTimeout = 2 * time.Minute

// runWithDeadline fails the test if fn does not return in time — the
// quiescence property is precisely "this call returns".
func runWithDeadline(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(quiescenceTimeout):
		t.Fatalf("%s: engine failed to reach quiescence within %v", what, quiescenceTimeout)
	}
}

// adversarialSchedule draws batches from a deliberately hostile distribution.
// Updates are raw (possibly invalid — duplicate pairs, absent deletes); the
// Repair ingest policy drops the invalid remainder, which is itself part of
// the property being tested.
func adversarialSchedule(kind string, rng *rand.Rand, n int, batches, batchSize int) []Batch {
	out := make([]Batch, batches)
	for i := range out {
		var b Batch
		switch kind {
		case "hot-vertex":
			// All traffic converges on a handful of vertices: every worker
			// keeps forwarding events to the same few owners.
			hot := func() uint32 { return uint32(rng.Intn(4)) }
			any := func() uint32 { return uint32(rng.Intn(n)) }
			for j := 0; j < batchSize; j++ {
				e := Edge{Src: any(), Dst: hot(), Weight: 1 + float64(rng.Intn(5))}
				if rng.Intn(4) == 0 {
					e.Src, e.Dst = e.Dst, e.Src
				}
				if rng.Intn(3) == 0 {
					b.Deletes = append(b.Deletes, e)
				} else {
					b.Inserts = append(b.Inserts, e)
				}
			}
		case "delete-heavy":
			for j := 0; j < batchSize; j++ {
				e := Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: 1 + float64(rng.Intn(5))}
				if rng.Intn(10) < 8 {
					b.Deletes = append(b.Deletes, e)
				} else {
					b.Inserts = append(b.Inserts, e)
				}
			}
		case "empty":
			// Alternate empty and tiny batches: phases must terminate with
			// nothing (or almost nothing) to do.
			if i%2 == 0 {
				out[i] = Batch{}
				continue
			}
			b.Inserts = append(b.Inserts, Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: 1})
		}
		out[i] = b
	}
	return out
}

func TestQuiescenceUnderAdversarialSchedules(t *testing.T) {
	kinds := []string{"hot-vertex", "delete-heavy", "empty"}
	algs := []struct {
		name string
		mk   func() Algorithm
	}{
		{"sssp", func() Algorithm { return SSSP(0) }},
		{"pagerank", func() Algorithm { return PageRank(0) }},
	}
	const nv = 200
	for _, kind := range kinds {
		for _, al := range algs {
			t.Run(kind+"/"+al.name, func(t *testing.T) {
				g := RMAT(RMATConfig{Vertices: nv, Edges: 1600, Seed: 9})
				schedule := adversarialSchedule(kind, rand.New(rand.NewSource(17)), nv, 12, 30)

				run := func(t *testing.T, p int) *System {
					sys, err := New(g, al.mk(), WithTiming(false), WithParallelism(p), WithIngest(Repair))
					if err != nil {
						t.Fatal(err)
					}
					runWithDeadline(t, fmt.Sprintf("p=%d initial", p), func() { sys.RunInitial() })
					for i, b := range schedule {
						runWithDeadline(t, fmt.Sprintf("p=%d batch %d", p, i), func() {
							res, err := sys.ApplyBatch(b)
							if err != nil {
								t.Errorf("batch %d: %v", i, err)
								return
							}
							// The Repair fix: the per-batch report must be
							// deterministic and self-consistent.
							if res.Repaired != uint64(len(res.Issues)) {
								t.Errorf("batch %d: Repaired=%d but %d issues reported", i, res.Repaired, len(res.Issues))
							}
							if res.Stats.UpdatesDropped != res.Repaired {
								t.Errorf("batch %d: per-batch Stats.UpdatesDropped=%d, want %d", i, res.Stats.UpdatesDropped, res.Repaired)
							}
						})
					}
					st := sys.TotalStats()
					// Conservation law of the coalescing queue: at quiescence
					// every generated event was either processed or coalesced
					// into one that was. Holds exactly, at any parallelism.
					if r := st.EventsUnaccounted(); r != 0 {
						t.Errorf("p=%d: conservation violated: %d events unaccounted (generated %d, processed %d, coalesced %d)",
							p, r, st.EventsGenerated, st.EventsProcessed, st.EventsCoalesced)
					}
					return sys
				}

				seq := run(t, 1).TotalStats()
				for _, p := range []int{2, 8} {
					eachFanoutArm(t, p, func(t *testing.T) *System {
						sys := run(t, p)
						par := sys.TotalStats()
						// The coalescing-allowed envelope: parallel sharding can
						// only split coalescing opportunities, never create work
						// out of thin air — arrivals (processed + coalesced) stay
						// within a loose constant of the sequential schedule, and
						// useful work cannot collapse below it either.
						seqArrivals := seq.EventsProcessed + seq.EventsCoalesced
						parArrivals := par.EventsProcessed + par.EventsCoalesced
						if parArrivals > 16*seqArrivals {
							t.Errorf("p=%d: %d event arrivals vs sequential %d — outside the coalescing bound", p, parArrivals, seqArrivals)
						}
						if par.EventsProcessed < seq.EventsProcessed/16 {
							t.Errorf("p=%d: only %d events processed vs sequential %d", p, par.EventsProcessed, seq.EventsProcessed)
						}
						return sys
					})
				}
			})
		}
	}
}
