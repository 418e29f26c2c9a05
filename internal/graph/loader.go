package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxLoaderVertices bounds the vertex space ReadEdgeList will allocate; a
// single absurd id in a malformed file must not translate into a
// multi-gigabyte CSR.
const MaxLoaderVertices = 1 << 27

// ReadEdgeList parses a whitespace-separated edge list: one "src dst
// [weight]" triple per line, '#'-prefixed comment lines ignored. Missing
// weights default to 1. The vertex count is max id + 1 unless a larger n is
// given; it must stay below MaxLoaderVertices.
func ReadEdgeList(r io.Reader, n int) (*CSR, error) {
	edges, maxID, err := parseEdges(r)
	if err != nil {
		return nil, err
	}
	if n < maxID+1 {
		n = maxID + 1
	}
	if n > MaxLoaderVertices {
		return nil, fmt.Errorf("graph: vertex id %d exceeds the loader limit (%d)", maxID, MaxLoaderVertices)
	}
	return Build(n, edges)
}

func parseEdges(r io.Reader) ([]Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: want 'src dst [weight]'", line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad src: %w", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad dst: %w", line, err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: line %d: bad weight: %w", line, err)
			}
		}
		if int(src) > maxID {
			maxID = int(src)
		}
		if int(dst) > maxID {
			maxID = int(dst)
		}
		edges = append(edges, Edge{VertexID(src), VertexID(dst), w})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return edges, maxID, nil
}

// WriteEdgeList emits g in the format ReadEdgeList accepts.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}
