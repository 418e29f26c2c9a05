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

// SanitizeBatch audits b against g and returns a copy containing only the
// valid updates, plus the list of issues found. The returned batch always
// applies cleanly to g (the Repair ingest policy feeds it straight to the
// engine). Delete weights are normalized to the stored edge weight — the
// (src,dst) pair is the edge's identity (paper §2.1), and the carried weight
// feeds the VAP contribution computation, so a stale or corrupted delete
// weight must not poison recovery. b itself is never modified.
func (g *CSR) SanitizeBatch(b Batch) (Batch, []BatchIssue) {
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

// ValidateBatch checks b against g and returns a *BatchError listing every
// invalid update, or nil when the batch is clean. It performs the same audit
// as SanitizeBatch without constructing the repaired copy's semantics: the
// Strict ingest policy uses it to reject a poisoned batch with the state
// untouched.
func (g *CSR) ValidateBatch(b Batch) error {
	_, issues := g.SanitizeBatch(b)
	if len(issues) == 0 {
		return nil
	}
	return &BatchError{Issues: issues}
}
