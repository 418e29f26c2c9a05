package graph

import (
	"fmt"
	"math"
	"slices"
)

// FoldError is Fold's refusal: record Seq holds updates that do not apply to
// the edge set the records before it leave — the record would fail
// SanitizeBatch on the version it was journaled against. It unwraps to the
// *BatchError that SanitizeBatch would report for that record.
type FoldError struct {
	Seq    uint64
	Issues []BatchIssue
}

func (e *FoldError) Error() string {
	return fmt.Sprintf("graph: fold: record %d does not apply: %v", e.Seq, e.Unwrap())
}

// Unwrap returns the record's issues as a *BatchError.
func (e *FoldError) Unwrap() error { return &BatchError{Issues: e.Issues} }

// Fold returns the net delta of applying the batches recs, numbered first,
// first+1, ..., to g in order: one Batch that takes g to the graph the
// sequence would leave. It is the paper's view of a batch as the difference
// of two graph versions (§2.1): an insert that a later record deletes
// cancels, a delete that a later record re-inserts becomes a delete + insert
// pair (a weight change, cancelled too when the weight comes back bit-equal),
// and every net delete carries the weight g stores. Both lists come out in
// (src,dst) order. g and recs are not modified.
//
// Every op is checked against its edge's state at that point in the sequence,
// with SanitizeBatch's rules; the first record holding an invalid op fails
// the fold with a *FoldError listing that record's issues in batch order.
//
// The ops are ordered by (src, dst, record, deletes first, batch order) with
// the radix passes order uses, so the edge states are one binary search per
// pair into an adjacency fetched once per source: the cost is
// O(ops + sources·log d), independent of the record count.
func Fold(g *CSR, first uint64, recs []Batch) (Batch, error) {
	n := 0
	for i := range recs {
		n += recs[i].Size()
	}
	ops, tmp := make([]segOp, n), make([]segOp, n)
	rec := make([]uint32, n) // record index by segOp.idx
	k := 0
	for r, b := range recs {
		for _, e := range b.Deletes {
			ops[k] = segOp{v: e.Src, id: e.Dst, w: e.Weight, idx: uint32(k), del: true}
			rec[k] = uint32(r)
			k++
		}
		for _, e := range b.Inserts {
			ops[k] = segOp{v: e.Src, id: e.Dst, w: e.Weight, idx: uint32(k)}
			rec[k] = uint32(r)
			k++
		}
	}
	ops, tmp = radixSort(ops, tmp, false)
	ops, _ = radixSort(ops, tmp, true)

	var net Batch
	var bad []foldIssue
	for i := 0; i < len(ops); {
		v := ops[i].v
		var ids []VertexID
		var ws []Weight
		if int(v) < g.n {
			ids, ws = g.OutAdj(v)
		}
		for from := 0; i < len(ops) && ops[i].v == v; {
			id := ops[i].id
			inRange := int(v) < g.n && int(id) < g.n
			base, baseW := false, Weight(0)
			if inRange {
				from += searchID(ids[from:], id)
				if from < len(ids) && ids[from] == id {
					base, baseW = true, ws[from]
				}
			}
			live, w := base, baseW
			// The record of the last delete and insert that stood on this
			// pair: a second one in the same record is a duplicate.
			lastDel, lastIns := int64(-1), int64(-1)
			for ; i < len(ops) && ops[i].v == v && ops[i].id == id; i++ {
				op := ops[i]
				r := int64(rec[op.idx])
				var issue IssueKind
				switch {
				case !inRange:
					issue = IssueOutOfRange
				case op.del && lastDel == r:
					issue = IssueDuplicate
				case op.del && !live:
					issue = IssueMissingDelete
				case op.del:
					live, lastDel = false, r
					continue
				case badWeight(op.w):
					issue = IssueBadWeight
				case lastIns == r:
					issue = IssueDuplicate
				case live:
					issue = IssueExistingInsert
				default:
					live, w, lastIns = true, op.w, r
					continue
				}
				bad = append(bad, foldIssue{op.idx, issue})
			}
			switch {
			case base && !live:
				net.Deletes = append(net.Deletes, Edge{Src: v, Dst: id, Weight: baseW})
			case !base && live:
				net.Inserts = append(net.Inserts, Edge{Src: v, Dst: id, Weight: w})
			case base && math.Float64bits(w) != math.Float64bits(baseW):
				net.Deletes = append(net.Deletes, Edge{Src: v, Dst: id, Weight: baseW})
				net.Inserts = append(net.Inserts, Edge{Src: v, Dst: id, Weight: w})
			}
		}
	}
	if len(bad) > 0 {
		return Batch{}, foldError(first, recs, rec, bad)
	}
	return net, nil
}

// foldIssue is one invalid op, by its load position.
type foldIssue struct {
	idx  uint32
	kind IssueKind
}

// foldError reports the earliest record among the invalid ops: every record
// before it applied, so the edge states its ops were checked against are the
// ones its own version held, and its issues are SanitizeBatch's. Each issue
// carries the update as the record holds it, in batch order.
func foldError(first uint64, recs []Batch, rec []uint32, bad []foldIssue) error {
	earliest := rec[bad[0].idx]
	for _, is := range bad {
		earliest = min(earliest, rec[is.idx])
	}
	bad = slices.DeleteFunc(bad, func(is foldIssue) bool { return rec[is.idx] != earliest })
	slices.SortFunc(bad, func(a, b foldIssue) int { return int(a.idx) - int(b.idx) })
	// The record's ops were loaded from this offset on, deletes first.
	off := 0
	for _, b := range recs[:earliest] {
		off += b.Size()
	}
	b := recs[earliest]
	issues := make([]BatchIssue, len(bad))
	for i, is := range bad {
		if j := int(is.idx) - off; j < len(b.Deletes) {
			issues[i] = BatchIssue{Kind: is.kind, Edge: b.Deletes[j], Delete: true}
		} else {
			issues[i] = BatchIssue{Kind: is.kind, Edge: b.Inserts[j-len(b.Deletes)]}
		}
	}
	return &FoldError{Seq: first + uint64(earliest), Issues: issues}
}
