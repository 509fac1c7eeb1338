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
// order (the rows are copied). The in-neighbours are derived canonically:
// In(v) lists sources in ascending order, ties in row order — the order in
// which the edges into v would arrive were every edge added source by
// source. Und(v) is Out(v) followed by In(v). It panics on a target outside
// [0, len(out)). The construction is two passes over the rows and a fixed
// number of allocations regardless of node count; sharded generators and
// the streaming file decoder use it to assemble a graph from independently
// produced rows.
func FromRows(out [][]int32) *CSR {
	n := len(out)
	c := &CSR{
		n:      n,
		outOff: make([]int64, n+1),
		inOff:  make([]int64, n+1),
		undOff: make([]int64, n+1),
	}
	for u, row := range out {
		c.outOff[u+1] = c.outOff[u] + int64(len(row))
		for _, v := range row {
			if int(v) >= n || v < 0 {
				panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
			}
			c.inOff[v+1]++
		}
	}
	c.edges = int(c.outOff[n])
	for v := 0; v < n; v++ {
		c.inOff[v+1] += c.inOff[v]
		c.undOff[v+1] = c.outOff[v+1] + c.inOff[v+1]
	}
	c.outAdj = make([]int32, c.edges)
	c.inAdj = make([]int32, c.edges)
	c.undAdj = make([]int32, 2*c.edges)
	next := make([]int64, n) // next free slot of each in-row
	copy(next, c.inOff)
	for u, row := range out {
		copy(c.outAdj[c.outOff[u]:], row)
		for _, v := range row {
			c.inAdj[next[v]] = int32(u)
			next[v]++
		}
	}
	for v := int32(0); int(v) < n; v++ {
		k := c.undOff[v]
		k += int64(copy(c.undAdj[k:], c.Out(v)))
		copy(c.undAdj[k:], c.In(v))
	}
	return c
}
