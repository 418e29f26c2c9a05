package main

import (
	"fmt"
	"math"

	"jetstream"
)

// tenantSpec declares one standing query of a workload: its kernel, graph
// size, configuration and the shape of the batches streamed into it.
type tenantSpec struct {
	name       string
	algo       jetstream.AlgorithmSpec
	vertices   int
	edges      int
	config     jetstream.Config
	batchSize  int
	insertFrac float64
	// closedRate and pacedRate are a library tenant's own frozen rates (see
	// workload); daemon tenants share their workload's.
	closedRate, pacedRate float64
}

// symmetric reports whether the kernel needs an undirected graph.
func (t tenantSpec) symmetric() bool { return t.algo.Name == "cc" || t.algo.Name == "wcc" }

// workload is one fixed set of inputs the benchmark runs. Names are frozen:
// later issues refer to them.
type workload struct {
	name string
	why  string
	// library runs the tenants one after another in this process through the
	// public jetstream API instead of through a jetstreamd child.
	library bool
	tenants []tenantSpec
	// conns is the number of HTTP connections; tenant i belongs to connection
	// i % conns and only that connection ever sends its batches, in order.
	conns int
	// warmup is the number of untimed batches each tenant receives first.
	warmup int
	// closedRate sizes the closed phase: the total batches per second the seed
	// commit sustained on the reference box, frozen. The phase sends
	// closedRate * seconds/2 batches however long that takes, so every run and
	// every commit does identical work.
	closedRate float64
	// pacedRate is the open-loop arrival rate in batches per second over all
	// connections: about 30 % of closedRate when the workload was defined,
	// then frozen. It is never derived from a measurement at run time — faster
	// code would be handed more load.
	//
	// A library workload runs its tenants one after another, each for an
	// equal share of each phase, and a kernel's cost per batch can differ by
	// an order of magnitude from the next one's; its rates live on the tenants.
	pacedRate float64
	// graceful ends the run with SIGTERM (checkpoint, restart, restore)
	// instead of kill -9 (restart, WAL replay).
	graceful bool
}

// selective is the kernel rotation for daemon tenants. All four are selective
// (monotonic) kernels, whose converged state is bitwise equal to a sequential
// solve at any engine parallelism — which is what makes a bitwise gate sound
// at the serving default of 8 workers.
var selective = []jetstream.AlgorithmSpec{
	{Name: "sssp", Root: 0},
	{Name: "bfs", Root: 0},
	{Name: "sswp", Root: 0},
	{Name: "cc"},
}

// scaled divides a graph size by div, the -smoke scale, keeping it workable.
func scaled(v, div int) int { return max(v/div, 16) }

// workloads returns the four workloads with graph sizes divided by div (1
// for a measurement, more for -smoke).
func workloads(div int) []workload {
	walBatch := jetstream.Config{WALDir: "wal", WALSync: "batch"}
	walInterval := jetstream.Config{WALDir: "wal", WALSync: "interval", WALSyncInterval: 16}
	windowed := walInterval
	windowed.WindowTTL = 32

	small := workload{
		name:  "small-batch",
		why:   "32-update batches on 8 big memory-only tenants: per-batch fixed cost (engine fan-out, HTTP/JSON framing, admission) dominates; graph, wal and window do almost nothing",
		conns: 2, warmup: 8, closedRate: 1300, pacedRate: 400, graceful: true,
	}
	for i := 0; i < 8; i++ {
		small.tenants = append(small.tenants, tenantSpec{
			name: fmt.Sprintf("small-%d", i), algo: selective[i%len(selective)],
			vertices: scaled(20000, div), edges: scaled(160000, div),
			batchSize: 32, insertFrac: 0.7,
		})
	}

	bulk := workload{
		name:  "durable-bulk",
		why:   "1024-update batches with one fsync each on 2 small WAL tenants: bytes dominate (JSON decode, WAL re-encode, fsync, graph delta); ends with kill -9 and log replay",
		conns: 2, warmup: 64, closedRate: 120, pacedRate: 36,
	}
	for i, a := range []jetstream.AlgorithmSpec{{Name: "bfs", Root: 0}, {Name: "sswp", Root: 0}} {
		bulk.tenants = append(bulk.tenants, tenantSpec{
			name: fmt.Sprintf("bulk-%d", i), algo: a,
			vertices: scaled(4000, div), edges: scaled(64000, div), config: walBatch,
			batchSize: 1024, insertFrac: 0.5,
		})
	}

	del := workload{
		name:  "delete-window",
		why:   "TTL-32 windowed wcc tenant expiring ~512 edges a batch beside a 50 %-delete sssp tenant, interval fsync: deletion recovery, window expire/record, delete delta path, replay that re-derives expiry",
		conns: 2, warmup: 40, closedRate: 360, pacedRate: 108,
		tenants: []tenantSpec{
			{name: "window-wcc", algo: jetstream.AlgorithmSpec{Name: "wcc"},
				vertices: scaled(20000, div), edges: scaled(40000, div), config: windowed,
				batchSize: 512, insertFrac: 1},
			{name: "delete-sssp", algo: jetstream.AlgorithmSpec{Name: "sssp", Root: 0},
				vertices: scaled(20000, div), edges: scaled(160000, div), config: walInterval,
				batchSize: 256, insertFrac: 0.5},
		},
	}

	timing := jetstream.Config{Timing: true, Parallelism: 1}
	sim := workload{
		name:    "sim-timing",
		why:     "library calls with the cycle model on, one goroutine: the timing model (engine timing, mem, noc) does the work, service/wal/window none; pins that host-speed changes leave simulated statistics equal",
		library: true, warmup: 4,
		tenants: []tenantSpec{
			{name: "sim-sssp", algo: jetstream.AlgorithmSpec{Name: "sssp", Root: 0},
				vertices: scaled(20000, div), edges: scaled(160000, div), config: timing,
				batchSize: 100, insertFrac: 0.7, closedRate: 1100, pacedRate: 330},
			{name: "sim-pagerank", algo: jetstream.AlgorithmSpec{Name: "pagerank", Eps: 1e-4},
				vertices: scaled(20000, div), edges: scaled(160000, div), config: timing,
				batchSize: 100, insertFrac: 0.7, closedRate: 86, pacedRate: 26},
		},
	}
	return []workload{small, bulk, del, sim}
}

// workloadByName finds one workload.
func workloadByName(name string, div int) (workload, error) {
	for _, w := range workloads(div) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rates returns tenant i's frozen closed and paced rates: its own in a
// library workload, the workload's otherwise.
func (w workload) rates(i int) (closed, paced float64) {
	if w.library {
		return w.tenants[i].closedRate, w.tenants[i].pacedRate
	}
	return w.closedRate, w.pacedRate
}

// plan is the number of batches each phase of one life sends to each tenant,
// derived from the frozen rates and the requested run length only.
type plan struct {
	closed []int
	paced  []int
}

// planFor sizes the phases. The run length is split evenly over the lives,
// and within a life half goes to the closed phase and half to the paced one;
// every tenant gets an equal share at the frozen rates, rounded up to whole
// batches. Daemon tenants run side by side on the workload's rates, so they
// all get the same counts.
func planFor(w workload, seconds float64, lives int) plan {
	var pl plan
	per := func(rate float64) int {
		return max(1, int(math.Ceil(rate*seconds/2/float64(lives)/float64(len(w.tenants)))))
	}
	for i := range w.tenants {
		closed, paced := w.rates(i)
		pl.closed = append(pl.closed, per(closed))
		pl.paced = append(pl.paced, per(paced))
	}
	return pl
}

// totals is the batch count each tenant receives in one life, warm-up
// included. Every life replays the same batches from the first.
func (p plan) totals(w workload) []int {
	out := make([]int, len(p.closed))
	for i := range out {
		out[i] = w.warmup + p.closed[i] + p.paced[i]
	}
	return out
}
