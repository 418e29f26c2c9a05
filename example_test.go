package jetstream_test

import (
	"fmt"
	"log"

	"jetstream"
)

// Example_quickstart is the short tour of the public API: build a small
// social-style graph, evaluate single-source shortest paths on the modeled
// accelerator, stream two update batches through the incremental engine, and
// check that each batch costs a fraction of the initial evaluation while the
// results stay exact.
func Example_quickstart() {
	// A power-law graph in the style of the paper's social-network datasets.
	g := jetstream.RMAT(jetstream.RMATConfig{Vertices: 5000, Edges: 40000, Seed: 7})

	// A standing shortest-paths query rooted at vertex 0.
	algo, err := jetstream.NewAlgorithm(jetstream.AlgorithmSpec{Name: "sssp", Root: 0})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := jetstream.New(g, algo)
	if err != nil {
		log.Fatal(err)
	}

	// Initial (static) evaluation — what GraphPulse would do.
	init := sys.RunInitial()
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Stream updates: 70% edge insertions, 30% deletions per batch.
	updates := jetstream.NewStream(jetstream.StreamConfig{BatchSize: 100, InsertFrac: 0.7, Seed: 11})
	for i := 1; i <= 2; i++ {
		batch := updates.Next(sys.Graph())
		res, err := sys.ApplyBatch(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: %d inserts, %d deletes, fewer cycles than the initial evaluation: %v\n",
			i, len(batch.Inserts), len(batch.Deletes), res.Cycles < init.Cycles)
	}

	// The streaming results are exact: compare against Dijkstra from scratch.
	fmt.Println("verified against a from-scratch Dijkstra run:", sys.Verify() == 0)
	fmt.Printf("distance to vertex 42: %.4f\n", sys.State()[42])
	// Output:
	// graph: 5000 vertices, 40000 edges
	// batch 1: 70 inserts, 30 deletes, fewer cycles than the initial evaluation: true
	// batch 2: 70 inserts, 30 deletes, fewer cycles than the initial evaluation: true
	// verified against a from-scratch Dijkstra run: true
	// distance to vertex 42: 8.4706
}

// Example_realtime asks how small batches can get. Streaming systems batch
// updates to amortize evaluation; the paper's Fig 13 argues the per-batch
// overhead is low enough to shrink batches toward real-time operation. The
// sweep keeps the total number of streamed updates fixed and compares the
// modeled cycles per update across batch sizes.
func Example_realtime() {
	const totalUpdates = 1024
	bfs, err := jetstream.NewAlgorithm(jetstream.AlgorithmSpec{Name: "bfs", Root: 0})
	if err != nil {
		log.Fatal(err)
	}
	var perUpdate []float64
	for _, batchSize := range []int{512, 128, 32, 8, 1} {
		g := jetstream.RMAT(jetstream.RMATConfig{Vertices: 6000, Edges: 50000, Seed: 9})
		sys, err := jetstream.New(g, bfs)
		if err != nil {
			log.Fatal(err)
		}
		sys.RunInitial()
		gen := jetstream.NewStream(jetstream.StreamConfig{BatchSize: batchSize, InsertFrac: 0.7, Seed: 13})
		n := totalUpdates / batchSize
		var cycles uint64
		for i := 0; i < n; i++ {
			res, err := sys.ApplyBatch(gen.Next(sys.Graph()))
			if err != nil {
				log.Fatal(err)
			}
			cycles += res.Cycles
		}
		perUpdate = append(perUpdate, float64(cycles)/totalUpdates)
		fmt.Printf("batch size %d: %d batches, verified: %v\n", batchSize, n, sys.Verify() == 0)
	}
	fmt.Println("single updates cost more cycles each than batches of 512:", perUpdate[len(perUpdate)-1] > perUpdate[0])
	// Output:
	// batch size 512: 2 batches, verified: true
	// batch size 128: 8 batches, verified: true
	// batch size 32: 32 batches, verified: true
	// batch size 8: 128 batches, verified: true
	// batch size 1: 1024 batches, verified: true
	// single updates cost more cycles each than batches of 512: true
}

// Example_roadNetwork keeps shortest paths from a depot over a road grid
// while roads close (edge deletions, the hard case for monotonic algorithms)
// and reopen (insertions), and compares each incremental update with the
// cold-start recomputation a static accelerator would need: the paper's
// deletion machinery (tagging, reset, reapproximation requests) on the
// workload where it matters most.
func Example_roadNetwork() {
	// A 70x70 road grid with some diagonal shortcuts; weights are travel
	// minutes. Grid edges are bidirectional.
	roads := jetstream.Grid(jetstream.GridConfig{Rows: 70, Cols: 70, Diagonal: 0.1, MaxWeight: 12, Seed: 5})
	routes, err := jetstream.NewAlgorithm(jetstream.AlgorithmSpec{Name: "sssp", Root: 0})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := jetstream.New(roads, routes)
	if err != nil {
		log.Fatal(err)
	}
	sys.RunInitial()
	fmt.Printf("road network: %d junctions, %d road segments\n", roads.NumVertices(), roads.NumEdges())

	// Rush hour: batches of mostly closures (70% deletes), mirrored so both
	// directions of a road close together.
	closures := jetstream.NewStream(jetstream.StreamConfig{
		BatchSize: 80, InsertFrac: 0.3, Symmetric: true, MaxWeight: 12, Seed: 17,
	})
	probe := uint32(roads.NumVertices() - 1) // far corner of the map
	for wave := 1; wave <= 4; wave++ {
		b := closures.Next(sys.Graph())
		res, err := sys.ApplyBatch(b)
		if err != nil {
			log.Fatal(err)
		}
		// What a static accelerator would pay: full recomputation on the
		// mutated network.
		cold, err := jetstream.New(sys.Graph(), routes)
		if err != nil {
			log.Fatal(err)
		}
		coldRes := cold.RunInitial()
		fmt.Printf("wave %d: %d closures, %d reopenings, ETA to far corner %.1f min, cheaper than cold start: %v\n",
			wave, len(b.Deletes), len(b.Inserts), sys.State()[probe], res.Cycles < coldRes.Cycles)
	}
	fmt.Println("all routes verified:", sys.Verify() == 0)
	// Output:
	// road network: 4900 junctions, 20238 road segments
	// wave 1: 56 closures, 24 reopenings, ETA to far corner 217.3 min, cheaper than cold start: true
	// wave 2: 56 closures, 24 reopenings, ETA to far corner 217.3 min, cheaper than cold start: true
	// wave 3: 56 closures, 24 reopenings, ETA to far corner 177.0 min, cheaper than cold start: true
	// wave 4: 56 closures, 24 reopenings, ETA to far corner 164.2 min, cheaper than cold start: true
	// all routes verified: true
}

// Example_socialStream runs two standing queries over one evolving social
// graph — incremental PageRank (accumulative) on the follower graph and
// connected components (monotonic) on its symmetrized friendship view — and
// reports the top-ranked user and the community count after each day's
// batch, the workload class the paper's introduction motivates.
func Example_socialStream() {
	base := jetstream.RMAT(jetstream.RMATConfig{Vertices: 4000, Edges: 30000, Seed: 3})
	ranks, err := jetstream.New(base, jetstream.PageRank(1e-7))
	if err != nil {
		log.Fatal(err)
	}
	ranks.RunInitial()
	// The friendship view's updates must stay symmetric, so it gets its own
	// mirrored stream.
	comms, err := jetstream.New(jetstream.Symmetrize(base), jetstream.CC())
	if err != nil {
		log.Fatal(err)
	}
	comms.RunInitial()
	fmt.Printf("initial: %d communities, top user %d\n", countLabels(comms.State()), top(ranks.State()))

	rankFeed := jetstream.NewStream(jetstream.StreamConfig{BatchSize: 150, InsertFrac: 0.7, Seed: 21})
	friendFeed := jetstream.NewStream(jetstream.StreamConfig{BatchSize: 150, InsertFrac: 0.6, Symmetric: true, Seed: 22})
	for day := 1; day <= 3; day++ {
		if _, err := ranks.ApplyBatch(rankFeed.Next(ranks.Graph())); err != nil {
			log.Fatal(err)
		}
		if _, err := comms.ApplyBatch(friendFeed.Next(comms.Graph())); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: %d communities, top user %d\n", day, countLabels(comms.State()), top(ranks.State()))
	}
	fmt.Println("communities verified:", comms.Verify() == 0)
	// Output:
	// initial: 992 communities, top user 0
	// day 1: 980 communities, top user 0
	// day 2: 966 communities, top user 0
	// day 3: 944 communities, top user 0
	// communities verified: true
}

// top returns the index of the largest rank.
func top(ranks []float64) int {
	best := 0
	for i, r := range ranks {
		if r > ranks[best] {
			best = i
		}
	}
	return best
}

// countLabels returns the number of distinct component labels.
func countLabels(labels []float64) int {
	set := map[float64]bool{}
	for _, l := range labels {
		set[l] = true
	}
	return len(set)
}
