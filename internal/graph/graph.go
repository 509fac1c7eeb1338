// Package graph implements the directed-graph substrate of the reproduction:
// the user follower graph G(V,E) and the instance federation graph GF(I,E)
// from Section 3 of the paper, together with the analyses run on them —
// degree distributions (Fig 11), connected-component structure, and the
// targeted node-removal sweeps of Figs 12 and 13.
//
// Nodes are dense integer ids 0..N-1. There is one graph representation,
// the frozen CSR (csr.go); a Builder collects edges and freezes into it.
// Removal experiments operate on an "alive" mask so a single graph can be
// swept many times without rebuilding.
package graph

import "fmt"

// Builder collects the edges of a directed graph over nodes 0..N-1. It is
// write-only: Freeze turns it into the CSR every reader uses.
type Builder struct {
	out [][]int32
}

// NewBuilder returns an empty builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{out: make([][]int32, n)}
}

// AddEdge adds the directed edge from → to. It does not deduplicate. It
// panics if either endpoint is out of range.
func (b *Builder) AddEdge(from, to int32) {
	if int(from) >= len(b.out) || int(to) >= len(b.out) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, len(b.out)))
	}
	b.out[from] = append(b.out[from], to)
}

// Freeze returns the CSR of the edges added so far; see FromRows for the
// neighbour order.
func (b *Builder) Freeze() *CSR { return FromRows(b.out) }

// FromRows builds the CSR whose out-neighbours of u are out[u], in row
// order: it copies the rows into one contiguous array and hands that to
// FromAdjacency, which derives the in-rows and panics on a target outside
// [0, len(out)). It allocates only what the CSR keeps; the sharded
// generator assembles a graph from independently produced rows with it.
func FromRows(out [][]int32) *CSR {
	off := make([]int64, len(out)+1)
	for u, row := range out {
		off[u+1] = off[u] + int64(len(row))
	}
	adj := make([]int32, off[len(out)])
	for u, row := range out {
		copy(adj[off[u]:], row)
	}
	return FromAdjacency(off, adj)
}

// FromAdjacency builds the CSR whose out-neighbours of u are
// adj[off[u]:off[u+1]]. It adopts both slices as the CSR's out-rows, so the
// caller must not modify them afterwards, and allocates only the in-rows.
// The in-neighbours are derived canonically: In(v) lists sources in
// ascending order, ties in row order — the order in which the edges into v
// would arrive were every edge added source by source. It panics unless
// off runs from 0 to len(adj), or on a target outside [0, len(off)-1). The
// streaming file decoder and the Twitter baseline build their rows in
// place and hand them over with it.
func FromAdjacency(off []int64, adj []int32) *CSR {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || off[n] != int64(len(adj)) {
		panic(fmt.Sprintf("graph: offsets of %d rows do not span %d edges", n, len(adj)))
	}
	c := &CSR{
		n:      n,
		edges:  len(adj),
		outOff: off,
		outAdj: adj,
		inOff:  make([]int64, n+1),
		inAdj:  make([]int32, len(adj)),
	}
	for _, v := range adj {
		if int(v) >= n || v < 0 {
			panic(fmt.Sprintf("graph: edge target %d out of range [0,%d)", v, n))
		}
		c.inOff[v+1]++
	}
	for v := 0; v < n; v++ {
		c.inOff[v+1] += c.inOff[v]
	}
	// inOff[v] is the fill cursor of v's in-row: afterwards it holds the
	// row's end, which is inOff[v+1], so one shift puts the offsets back.
	for u := 0; u < n; u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			c.inAdj[c.inOff[v]] = int32(u)
			c.inOff[v]++
		}
	}
	copy(c.inOff[1:], c.inOff[:n])
	c.inOff[0] = 0
	return c
}
