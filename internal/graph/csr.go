package graph

// This file implements the frozen compressed-sparse-row (CSR) graph
// (DESIGN.md) — flat neighbour arrays with per-node offset indexes, built
// once by FromRows / Builder.Freeze — and the analyses that run on it:
// weakly connected components and quotient-graph induction (strongly
// connected components are in scc.go).

// CSR is a frozen directed graph in compressed-sparse-row form. Neighbour
// ids live in flat []int32 arrays indexed by per-node offsets, so every
// traversal is a sequential scan — no per-node slice headers, no pointer
// chasing. Each edge is stored once per direction; undirected scans read
// the out-row and then the in-row.
//
// A CSR is immutable and safe for concurrent use.
type CSR struct {
	n     int
	edges int

	outOff []int64 // len n+1; out-neighbours of v are outAdj[outOff[v]:outOff[v+1]]
	outAdj []int32
	inOff  []int64
	inAdj  []int32
}

// NumNodes returns the number of nodes.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges returns the number of directed edges.
func (c *CSR) NumEdges() int { return c.edges }

// Out returns the out-neighbours of v. The returned slice aliases the CSR
// and must not be modified.
func (c *CSR) Out(v int32) []int32 { return c.outAdj[c.outOff[v]:c.outOff[v+1]] }

// In returns the in-neighbours of v. The returned slice aliases the CSR and
// must not be modified.
func (c *CSR) In(v int32) []int32 { return c.inAdj[c.inOff[v]:c.inOff[v+1]] }

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v int32) int { return int(c.outOff[v+1] - c.outOff[v]) }

// InDegree returns the in-degree of v.
func (c *CSR) InDegree(v int32) int { return int(c.inOff[v+1] - c.inOff[v]) }

// Degree returns the total degree (in + out) of v.
func (c *CSR) Degree(v int32) int { return c.OutDegree(v) + c.InDegree(v) }

// MaxDegree returns the largest total degree of any node (0 for an empty
// graph). Sweeper sizes its counting-sort buckets with it.
func (c *CSR) MaxDegree() int {
	max := 0
	for v := int32(0); int(v) < c.n; v++ {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// OutDegrees returns every node's out-degree as float64s (Fig 11 input).
func (c *CSR) OutDegrees() []float64 {
	ds := make([]float64, c.n)
	for v := 0; v < c.n; v++ {
		ds[v] = float64(c.outOff[v+1] - c.outOff[v])
	}
	return ds
}

// WCCResult summarises the weakly-connected-component structure of a graph
// restricted to its alive nodes.
type WCCResult struct {
	NumComponents int // number of weakly connected components
	LargestSize   int // node count of the largest component
	AliveNodes    int // nodes considered
	// LargestRoot is the root label of the largest component (internal).
	// Equal-sized components tie towards the one containing the smallest
	// node id — the canonical, union-order-independent rule shared with the
	// reverse-incremental sweep (DESIGN.md).
	LargestRoot int32
	roots       []int32
}

// LCCFraction returns LargestSize / AliveNodes, or 0 when no nodes are alive.
func (r WCCResult) LCCFraction() float64 {
	if r.AliveNodes == 0 {
		return 0
	}
	return float64(r.LargestSize) / float64(r.AliveNodes)
}

// InLargest reports whether node v belongs to the largest component.
// It returns false for dead or out-of-range nodes.
func (r WCCResult) InLargest(v int32) bool {
	if int(v) >= len(r.roots) || r.roots[v] < 0 {
		return false
	}
	return r.roots[v] == r.LargestRoot
}

// WeaklyConnected computes the weakly-connected components of c restricted
// to nodes where alive[v] is true (alive == nil means all nodes) by weighted
// quick-union with path halving. Edges with a dead endpoint are ignored,
// matching the paper's node-removal semantics.
func (c *CSR) WeaklyConnected(alive []bool) WCCResult {
	n := c.n
	parent := make([]int32, n)
	size := make([]int32, n)
	roots := make([]int32, n)
	res := WCCResult{roots: roots, LargestRoot: -1}
	res.AliveNodes = csrUnionFind(c, alive, parent, size)
	res.NumComponents, res.LargestSize, res.LargestRoot = csrTally(alive, parent, size, roots)
	return res
}

// csrUnionFind runs union-find over the alive out-edges of c using the
// caller's parent/size scratch, returning the alive-node count. parent and
// size are (re)initialised here, so buffers can be reused across rounds.
func csrUnionFind(c *CSR, alive []bool, parent, size []int32) int {
	n := c.n
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	// The find loops are inlined by hand (a closure would cost a call per
	// edge), with path halving. One find per source node instead of one per
	// edge: rv stays v's root across the row because every union involving
	// v's tree leaves its result in rv. The union sequence (and therefore
	// the final forest) is identical to finding v afresh per edge. The
	// nil-mask case gets its own loop so the hot path carries no alive
	// branches.
	if alive == nil {
		for v := 0; v < n; v++ {
			row := c.outAdj[c.outOff[v]:c.outOff[v+1]]
			if len(row) == 0 {
				continue
			}
			rv := int32(v)
			for parent[rv] != rv {
				parent[rv] = parent[parent[rv]]
				rv = parent[rv]
			}
			for _, w := range row {
				rw := w
				for parent[rw] != rw {
					parent[rw] = parent[parent[rw]]
					rw = parent[rw]
				}
				if rv == rw {
					continue
				}
				if size[rv] < size[rw] {
					rv, rw = rw, rv
				}
				parent[rw] = rv
				size[rv] += size[rw]
			}
		}
		return n
	}
	aliveCount := 0
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		aliveCount++
		row := c.outAdj[c.outOff[v]:c.outOff[v+1]]
		if len(row) == 0 {
			continue
		}
		rv := int32(v)
		for parent[rv] != rv {
			parent[rv] = parent[parent[rv]]
			rv = parent[rv]
		}
		for _, w := range row {
			if !alive[w] {
				continue
			}
			rw := w
			for parent[rw] != rw {
				parent[rw] = parent[parent[rw]]
				rw = parent[rw]
			}
			if rv == rw {
				continue
			}
			if size[rv] < size[rw] {
				rv, rw = rw, rv
			}
			parent[rw] = rv
			size[rv] += size[rw]
		}
	}
	return aliveCount
}

// csrTally fills roots (−1 for dead nodes) from a completed union-find and
// returns the component count and the largest component's size and root.
// It needs no separate tally array: unions only ever join alive nodes, so
// every alive self-root is a component and the union-find size at that root
// is exactly the component's node count (dead nodes stay isolated singleton
// roots and are skipped). The largest component uses the canonical
// tie-break (max size, tie towards the smallest member id — DESIGN.md).
func csrTally(alive []bool, parent, size, roots []int32) (numComponents, largestSize int, largestRoot int32) {
	largestRoot = -1
	for v := range roots {
		if alive != nil && !alive[v] {
			roots[v] = -1
			continue
		}
		r := int32(v)
		if parent[r] == r {
			numComponents++
			if int(size[r]) > largestSize {
				largestSize = int(size[r])
			}
		} else {
			for parent[r] != r {
				parent[r] = parent[parent[r]]
				r = parent[r]
			}
		}
		roots[v] = r
	}
	for v := range roots {
		if r := roots[v]; r >= 0 && int(size[r]) == largestSize {
			largestRoot = r
			break
		}
	}
	return numComponents, largestSize, largestRoot
}

// Induce builds the quotient graph obtained by mapping every node v of c to
// group[v] (e.g. user → hosting instance, producing the federation graph
// GF(I,E) of §3). An edge a→b exists in the result iff some edge u→v of c
// has group[u]=a, group[v]=b and a≠b. numGroups is the node count of the
// result.
//
// The kernel is the stamped group-bucket dedup (DESIGN.md): bucket the
// nodes by group (counting sort), then walk each group's nodes in turn,
// using a per-destination-group stamp array for O(1) dedup — no hash map,
// no sort, O(n + m + numGroups) total. Processing source groups in
// ascending order keeps the stamps monotone so they never need clearing.
func (c *CSR) Induce(group []int32, numGroups int) *CSR {
	if len(group) != c.n {
		panic("graph: Induce group length mismatch")
	}
	uoff := make([]int64, numGroups+1)
	for _, g := range group {
		uoff[g+1]++
	}
	for g := 0; g < numGroups; g++ {
		uoff[g+1] += uoff[g]
	}
	nodes := make([]int32, c.n)
	pos := make([]int64, numGroups)
	copy(pos, uoff[:numGroups])
	for u, g := range group {
		nodes[pos[g]] = int32(u)
		pos[g]++
	}
	q := NewBuilder(numGroups)
	seen := make([]int32, numGroups)
	for i := range seen {
		seen[i] = -1
	}
	for gu := 0; gu < numGroups; gu++ {
		sg := int32(gu)
		for _, u := range nodes[uoff[gu]:uoff[gu+1]] {
			for _, v := range c.Out(u) {
				gv := group[v]
				if gv == sg || seen[gv] == sg {
					continue
				}
				seen[gv] = sg
				q.AddEdge(sg, gv)
			}
		}
	}
	return q.Freeze()
}
