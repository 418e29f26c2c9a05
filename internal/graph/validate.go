package graph

import (
	"fmt"
	"math"
	"strings"
)

// IngestPolicy selects how the public streaming boundary (System.ApplyBatch)
// treats a batch that fails validation. The streaming
// model treats the update feed as untrusted and unending: a poisoned batch
// must degrade gracefully, never crash the standing query mid-stream.
type IngestPolicy int

const (
	// Strict rejects a batch containing any invalid update with a typed
	// *BatchError and leaves the query state untouched. This is the default.
	Strict IngestPolicy = iota
	// Repair drops the invalid updates, applies the surviving ones, and
	// reports the drops through stats.Counters (UpdatesDropped,
	// BatchesRepaired).
	Repair
)

func (p IngestPolicy) String() string {
	switch p {
	case Strict:
		return "strict"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("IngestPolicy(%d)", int(p))
	}
}

// IssueKind classifies one invalid update within a batch.
type IssueKind int

const (
	// IssueOutOfRange marks an endpoint >= the graph's vertex count.
	IssueOutOfRange IssueKind = iota
	// IssueBadWeight marks an insert whose weight is NaN, infinite or
	// non-positive.
	IssueBadWeight
	// IssueDuplicate marks a repeated (src,dst) pair within the inserts or
	// within the deletes of one batch.
	IssueDuplicate
	// IssueMissingDelete marks a delete naming an edge absent from the graph.
	IssueMissingDelete
	// IssueExistingInsert marks an insert of an edge already present (and not
	// deleted by the same batch — delete+insert of one pair is the paper's
	// weight-modification idiom and stays legal).
	IssueExistingInsert
)

func (k IssueKind) String() string {
	switch k {
	case IssueOutOfRange:
		return "out-of-range endpoint"
	case IssueBadWeight:
		return "bad weight"
	case IssueDuplicate:
		return "duplicate pair"
	case IssueMissingDelete:
		return "delete of absent edge"
	case IssueExistingInsert:
		return "insert of present edge"
	default:
		return fmt.Sprintf("IssueKind(%d)", int(k))
	}
}

// BatchIssue describes one invalid update found during validation.
type BatchIssue struct {
	Kind   IssueKind
	Edge   Edge
	Delete bool // the offending update was a delete
}

func (i BatchIssue) String() string {
	op := "insert"
	if i.Delete {
		op = "delete"
	}
	return fmt.Sprintf("%s (%d,%d,w=%g): %s", op, i.Edge.Src, i.Edge.Dst, i.Edge.Weight, i.Kind)
}

// BatchError is the typed rejection returned by the Strict ingest policy.
type BatchError struct {
	Issues []BatchIssue
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph: batch rejected: %d invalid update(s)", len(e.Issues))
	for i, is := range e.Issues {
		if i == 4 {
			fmt.Fprintf(&b, "; ... %d more", len(e.Issues)-i)
			break
		}
		fmt.Fprintf(&b, "; %s", is)
	}
	return b.String()
}

// badWeight is the one weight rule of every edge that enters a graph through
// the public boundary — a batch insert, an edge list, a graph handed to a
// System: a weight must be finite and positive. A zero or negative weight
// would let a selective kernel relax around a cycle forever.
func badWeight(w Weight) bool { return math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 }

// weightError returns the typed refusal of a graph holding the bad-weight
// edges es: a *BatchError of IssueBadWeight issues, in the order given.
func weightError(es []Edge) error {
	issues := make([]BatchIssue, len(es))
	for i, e := range es {
		issues[i] = BatchIssue{Kind: IssueBadWeight, Edge: e}
	}
	return fmt.Errorf("graph: edge weights refused: %w", &BatchError{Issues: issues})
}

// CheckWeights refuses a graph holding an edge whose weight breaks the rule
// a batch insert obeys (NaN, ±Inf or ≤ 0) with an error wrapping a
// *BatchError that lists every such edge in (src,dst) order; nil otherwise.
// Build applies the rule to its edge list; a graph made some other way (Apply
// takes any weight) is checked by System construction.
func (g *CSR) CheckWeights() error {
	var bad []Edge
	for v := 0; v < g.n; v++ {
		ids, ws := g.OutAdj(VertexID(v))
		for i, w := range ws {
			if badWeight(w) {
				bad = append(bad, Edge{Src: VertexID(v), Dst: ids[i], Weight: w})
			}
		}
	}
	if bad != nil {
		return weightError(bad)
	}
	return nil
}

// SanitizeBatch audits b against g and returns a copy containing only the
// valid updates, plus the list of issues found, in batch order (deletes, then
// inserts). The returned batch always applies cleanly to g (the Repair ingest
// policy feeds it straight to the engine). Delete weights are normalized to
// the stored edge weight — the (src,dst) pair is the edge's identity (paper
// §2.1), and the carried weight feeds the VAP contribution computation, so a
// stale or corrupted delete weight must not poison recovery. b itself is
// never modified.
//
// The rules are audit's (delta.go), the same routine ApplyDelta validates
// with, run over the batch ordered in the chain's scratch buffers: like
// ApplyDelta, SanitizeBatch on a live head belongs to the single host
// mutation thread.
func (g *CSR) SanitizeBatch(b Batch) (Batch, []BatchIssue) {
	sc := g.hostScratch()
	sc.order(b)
	bad := g.audit(sc, true)
	out := Batch{
		Deletes: append([]Edge(nil), b.Deletes...),
		Inserts: append([]Edge(nil), b.Inserts...),
	}
	for _, op := range sc.out {
		if op.del && sc.verdict[op.idx] == 0 {
			out.Deletes[op.idx].Weight = op.w
		}
	}
	if bad == 0 {
		return out, nil
	}
	issues := make([]BatchIssue, 0, bad)
	nd := len(b.Deletes)
	out.Deletes, issues = sift(out.Deletes, sc.verdict[:nd], true, issues)
	out.Inserts, issues = sift(out.Inserts, sc.verdict[nd:], false, issues)
	return out, issues
}

// sift compacts es down to the updates the audit passed, appending an issue
// for each one it did not; a list left empty is returned nil.
func sift(es []Edge, verdict []uint8, del bool, issues []BatchIssue) ([]Edge, []BatchIssue) {
	k := 0
	for i, e := range es {
		if c := verdict[i]; c != 0 {
			issues = append(issues, BatchIssue{IssueKind(c - 1), e, del})
			continue
		}
		es[k] = e
		k++
	}
	if k == 0 {
		return nil, issues
	}
	return es[:k], issues
}
