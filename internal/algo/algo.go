// Package algo defines the delta-accumulative (DAIC) programming model the
// GraphPulse/JetStream engines execute (paper §3.1, Algorithm 1) and the six
// workloads of the evaluation: SSSP, SSWP, BFS and Connected Components
// (selective/monotonic update functions, served by KickStarter in software)
// and incremental PageRank and Adsorption (accumulative update functions,
// served by GraphBolt in software).
package algo

import (
	"errors"
	"fmt"
	"math"

	"jetstream/internal/event"
	"jetstream/internal/graph"
)

// ErrUnknown is wrapped by New (and by everything that validates algorithm
// names, e.g. AlgorithmSpec JSON decoding) when a name resolves to no kernel.
// Match it with errors.Is.
var ErrUnknown = errors.New("unknown algorithm")

// SpecNames lists the kernels a declarative AlgorithmSpec may name, in a
// stable order.
func SpecNames() []string {
	return []string{"sssp", "sswp", "bfs", "cc", "wcc", "pagerank", "adsorption"}
}

// ValidSpecName reports whether name is usable in a declarative spec
// (see SpecNames; the "pr" shorthand for pagerank is accepted too).
func ValidSpecName(name string) bool {
	if name == "pr" {
		return true
	}
	for _, n := range SpecNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Class splits the algorithms by their update function, which decides how
// JetStream recovers from edge deletions (§3.5): selective algorithms need
// tag-propagation and reapproximation; accumulative algorithms negate the
// deleted contribution with a negative event.
type Class int

const (
	// Selective algorithms pick one dominating incoming contribution
	// (min/max); their convergence is monotonic.
	Selective Class = iota
	// Accumulative algorithms sum incoming contributions.
	Accumulative
)

func (c Class) String() string {
	if c == Selective {
		return "selective"
	}
	return "accumulative"
}

// Algorithm is the user-provided kernel of the DAIC model. The engines own
// state storage, scheduling and propagation; the algorithm supplies only the
// Reduce/Propagate pair, the Identity element and the initial event set —
// exactly the API surface GraphPulse exposes, so "JetStream supports all the
// algorithms supported in GraphPulse without any change to the application".
type Algorithm interface {
	// Name is the short code used by the CLI and the experiment harness.
	Name() string
	// Class selects the deletion-recovery strategy.
	Class() Class
	// Identity is the initial vertex value and the non-dominant element of
	// Reduce: Reduce(Identity, x) == x for any reachable x.
	Identity() float64
	// Reduce combines the current state with an incoming delta and returns
	// the new state. It must be commutative and associative (the Reordering
	// Property, §3.1) so events can be coalesced and applied in any order.
	Reduce(state, delta float64) float64
	// Propagate computes the delta sent from vertex u along an out-edge of
	// weight w. For selective algorithms x is u's state; for accumulative
	// algorithms x is the delta being forwarded (Maiter-style). outDeg and
	// outWSum describe u's out-adjacency in the graph version the event is
	// generated against — degree-dependent algorithms (PageRank, Adsorption)
	// divide by them.
	Propagate(u graph.VertexID, x float64, w graph.Weight, outDeg int, outWSum float64) float64
	// InitialEvents crafts the query's seed events (Algorithm 1's
	// InitialEvents()): vertices start at Identity and the first reduction
	// moves them to their initial state.
	InitialEvents(g *graph.CSR) []event.Event
	// InitialEventFor returns the contribution InitialEvents seeds at v, if
	// any. The converged state is the fixpoint over edge contributions AND
	// initial events, so when deletion recovery resets a vertex to Identity
	// it must re-seed this contribution — reapproximation requests can only
	// re-derive edge contributions (think of CC: a component's label is the
	// label-holder's own initial event, which no in-edge can restore).
	InitialEventFor(v graph.VertexID, g *graph.CSR) (float64, bool)
	// Epsilon is the propagation threshold for accumulative algorithms:
	// deltas with magnitude below it are dropped (termination). Selective
	// algorithms return 0.
	Epsilon() float64
}

// Dominates reports whether value a would win the Reduce against b — i.e. a
// is at least as progressed as b. The VAP optimization (§5.1) discards a
// delete whose carried contribution does not dominate the receiver's state.
func Dominates(a Algorithm, x, y float64) bool {
	return a.Reduce(x, y) == x
}

// ---------------------------------------------------------------------------
// Selective algorithms
// ---------------------------------------------------------------------------

// SSSP computes single-source shortest paths from Root.
type SSSP struct{ Root graph.VertexID }

// NewSSSP returns the SSSP kernel rooted at root.
func NewSSSP(root graph.VertexID) *SSSP { return &SSSP{Root: root} }

func (a *SSSP) Name() string                { return "sssp" }
func (a *SSSP) Class() Class                { return Selective }
func (a *SSSP) Identity() float64           { return math.Inf(1) }
func (a *SSSP) Epsilon() float64            { return 0 }
func (a *SSSP) Reduce(s, d float64) float64 { return math.Min(s, d) }
func (a *SSSP) Propagate(_ graph.VertexID, x float64, w graph.Weight, _ int, _ float64) float64 {
	return x + w
}
func (a *SSSP) InitialEvents(*graph.CSR) []event.Event {
	return []event.Event{event.New(a.Root, 0)}
}

func (a *SSSP) InitialEventFor(v graph.VertexID, _ *graph.CSR) (float64, bool) {
	if v == a.Root {
		return 0, true
	}
	return 0, false
}

// SSWP computes single-source widest paths (maximize the minimum edge weight
// along the path) from Root.
type SSWP struct{ Root graph.VertexID }

// NewSSWP returns the SSWP kernel rooted at root.
func NewSSWP(root graph.VertexID) *SSWP { return &SSWP{Root: root} }

func (a *SSWP) Name() string                { return "sswp" }
func (a *SSWP) Class() Class                { return Selective }
func (a *SSWP) Identity() float64           { return 0 }
func (a *SSWP) Epsilon() float64            { return 0 }
func (a *SSWP) Reduce(s, d float64) float64 { return math.Max(s, d) }
func (a *SSWP) Propagate(_ graph.VertexID, x float64, w graph.Weight, _ int, _ float64) float64 {
	return math.Min(x, w)
}
func (a *SSWP) InitialEvents(*graph.CSR) []event.Event {
	return []event.Event{event.New(a.Root, math.Inf(1))}
}

func (a *SSWP) InitialEventFor(v graph.VertexID, _ *graph.CSR) (float64, bool) {
	if v == a.Root {
		return math.Inf(1), true
	}
	return 0, false
}

// BFS computes hop counts from Root (edge weights ignored).
type BFS struct{ Root graph.VertexID }

// NewBFS returns the BFS kernel rooted at root.
func NewBFS(root graph.VertexID) *BFS { return &BFS{Root: root} }

func (a *BFS) Name() string                { return "bfs" }
func (a *BFS) Class() Class                { return Selective }
func (a *BFS) Identity() float64           { return math.Inf(1) }
func (a *BFS) Epsilon() float64            { return 0 }
func (a *BFS) Reduce(s, d float64) float64 { return math.Min(s, d) }
func (a *BFS) Propagate(_ graph.VertexID, x float64, _ graph.Weight, _ int, _ float64) float64 {
	return x + 1
}
func (a *BFS) InitialEvents(*graph.CSR) []event.Event {
	return []event.Event{event.New(a.Root, 0)}
}

func (a *BFS) InitialEventFor(v graph.VertexID, _ *graph.CSR) (float64, bool) {
	if v == a.Root {
		return 0, true
	}
	return 0, false
}

// CC computes connected components as min-label propagation. The input graph
// must be symmetric (use graph.Symmetrize); the engines propagate along
// out-edges only.
type CC struct{}

// NewCC returns the Connected Components kernel.
func NewCC() *CC { return &CC{} }

func (a *CC) Name() string                { return "cc" }
func (a *CC) Class() Class                { return Selective }
func (a *CC) Identity() float64           { return math.Inf(1) }
func (a *CC) Epsilon() float64            { return 0 }
func (a *CC) Reduce(s, d float64) float64 { return math.Min(s, d) }
func (a *CC) Propagate(_ graph.VertexID, x float64, _ graph.Weight, _ int, _ float64) float64 {
	return x
}
func (a *CC) InitialEvents(g *graph.CSR) []event.Event {
	evs := make([]event.Event, g.NumVertices())
	for v := range evs {
		evs[v] = event.New(graph.VertexID(v), float64(v))
	}
	return evs
}

func (a *CC) InitialEventFor(v graph.VertexID, _ *graph.CSR) (float64, bool) {
	return float64(v), true
}

// WCC is the windowed connected-components kernel: the same min-label DAIC
// functions as CC, but with union-find-with-rebuild-on-expiry reference
// semantics — its golden solver re-derives components by union-find over
// exactly the in-window edges, so a sliding window that ages out a bridging
// edge must split the component and the differential harness catches any
// label that fails to rebuild. The engine-side functions are identical to CC
// (the DAIC fixpoint does not depend on how the oracle is computed); the
// distinct kernel exists so windowed deployments and the difftest grid can
// select the expiry-aware oracle by name.
type WCC struct{ CC }

// NewWCC returns the windowed Connected Components kernel.
func NewWCC() *WCC { return &WCC{} }

func (a *WCC) Name() string { return "wcc" }

// ---------------------------------------------------------------------------
// Accumulative algorithms
// ---------------------------------------------------------------------------

// PageRank is the incremental (delta-accumulative) PageRank of the paper:
// PR(v) = Alpha + (1-Alpha) * sum_{u->v} PR(u)/outdeg(u), the formulation
// Algorithm 3 negates deletions against.
type PageRank struct {
	Alpha float64 // teleport mass, paper's α (0.15)
	Eps   float64 // propagation threshold
}

// NewPageRank returns the incremental PageRank kernel with the conventional
// α = 0.15 and the given convergence threshold (<=0 selects 1e-8).
func NewPageRank(eps float64) *PageRank {
	if eps <= 0 {
		eps = 1e-8
	}
	return &PageRank{Alpha: 0.15, Eps: eps}
}

func (a *PageRank) Name() string                { return "pagerank" }
func (a *PageRank) Class() Class                { return Accumulative }
func (a *PageRank) Identity() float64           { return 0 }
func (a *PageRank) Epsilon() float64            { return a.Eps }
func (a *PageRank) Reduce(s, d float64) float64 { return s + d }
func (a *PageRank) Propagate(_ graph.VertexID, x float64, _ graph.Weight, outDeg int, _ float64) float64 {
	if outDeg == 0 {
		return 0
	}
	return x * (1 - a.Alpha) / float64(outDeg)
}
func (a *PageRank) InitialEvents(g *graph.CSR) []event.Event {
	evs := make([]event.Event, g.NumVertices())
	for v := range evs {
		evs[v] = event.New(graph.VertexID(v), a.Alpha)
	}
	return evs
}

func (a *PageRank) InitialEventFor(graph.VertexID, *graph.CSR) (float64, bool) {
	return a.Alpha, true
}

// Adsorption is the label-adsorption kernel: a weighted accumulative
// propagation where each vertex injects Inj and forwards a Cont fraction of
// incoming mass along out-edges proportionally to edge weight.
type Adsorption struct {
	Inj  float64 // injected mass per vertex
	Cont float64 // continuation probability
	Eps  float64
}

// NewAdsorption returns the Adsorption kernel (<=0 eps selects 1e-8).
func NewAdsorption(eps float64) *Adsorption {
	if eps <= 0 {
		eps = 1e-8
	}
	return &Adsorption{Inj: 0.15, Cont: 0.85, Eps: eps}
}

func (a *Adsorption) Name() string                { return "adsorption" }
func (a *Adsorption) Class() Class                { return Accumulative }
func (a *Adsorption) Identity() float64           { return 0 }
func (a *Adsorption) Epsilon() float64            { return a.Eps }
func (a *Adsorption) Reduce(s, d float64) float64 { return s + d }
func (a *Adsorption) Propagate(_ graph.VertexID, x float64, w graph.Weight, _ int, outWSum float64) float64 {
	if outWSum == 0 {
		return 0
	}
	return x * a.Cont * w / outWSum
}
func (a *Adsorption) InitialEvents(g *graph.CSR) []event.Event {
	evs := make([]event.Event, g.NumVertices())
	for v := range evs {
		evs[v] = event.New(graph.VertexID(v), a.Inj)
	}
	return evs
}

func (a *Adsorption) InitialEventFor(graph.VertexID, *graph.CSR) (float64, bool) {
	return a.Inj, true
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// New constructs an algorithm by short name. root seeds the single-source
// algorithms and is ignored by the others; eps is the accumulative
// convergence threshold (<=0 for default).
func New(name string, root graph.VertexID, eps float64) (Algorithm, error) {
	switch name {
	case "sssp":
		return NewSSSP(root), nil
	case "sswp":
		return NewSSWP(root), nil
	case "bfs":
		return NewBFS(root), nil
	case "cc":
		return NewCC(), nil
	case "wcc":
		return NewWCC(), nil
	case "pagerank", "pr":
		return NewPageRank(eps), nil
	case "adsorption":
		return NewAdsorption(eps), nil
	default:
		return nil, fmt.Errorf("algo: %w %q", ErrUnknown, name)
	}
}

// Params extracts the constructor arguments that rebuild a via New — the
// algorithm identity a checkpoint serializes. Kernels New cannot reconstruct
// exactly (caller-customized constants, user-defined Algorithm
// implementations) return an error; their sessions are
// not checkpointable.
func Params(a Algorithm) (name string, root graph.VertexID, eps float64, err error) {
	switch k := a.(type) {
	case *SSSP:
		return k.Name(), k.Root, 0, nil
	case *SSWP:
		return k.Name(), k.Root, 0, nil
	case *BFS:
		return k.Name(), k.Root, 0, nil
	case *WCC:
		return k.Name(), 0, 0, nil
	case *CC:
		return k.Name(), 0, 0, nil
	case *PageRank:
		if k.Alpha != 0.15 {
			return "", 0, 0, fmt.Errorf("algo: pagerank with non-default alpha %v is not reconstructible", k.Alpha)
		}
		return k.Name(), 0, k.Eps, nil
	case *Adsorption:
		if k.Inj != 0.15 || k.Cont != 0.85 {
			return "", 0, 0, fmt.Errorf("algo: adsorption with non-default constants is not reconstructible")
		}
		return k.Name(), 0, k.Eps, nil
	default:
		return "", 0, 0, fmt.Errorf("algo: %s is not reconstructible by name", a.Name())
	}
}

// Names lists the paper's Table 3 workloads in row order.
func Names() []string {
	return []string{"sswp", "sssp", "bfs", "cc", "pagerank", "adsorption"}
}

// NeedsSymmetric reports whether the algorithm's semantics assume an
// undirected (symmetrized) input graph.
func NeedsSymmetric(a Algorithm) bool {
	return a.Name() == "cc" || a.Name() == "wcc"
}
