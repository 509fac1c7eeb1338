package graph

// This file implements strongly-connected-component counting: one
// iterative Tarjan, run as a refinement of a partition, and the decremental
// engine that counts SCCs at every point of a removal schedule with it
// (DESIGN.md). It rests on two facts:
//
//   - Removing nodes only splits SCCs. An SCC that loses no node in a round
//     is still exactly an SCC after it, so a round re-runs Tarjan only
//     inside the SCCs it cut, over their surviving members and the edges
//     between them: count' = count − SCCs cut + SCCs found.
//   - An SCC of the final survivor set is strongly connected at every point
//     of the schedule, since its cycles use survivors only. So each is
//     contracted to one node, once, before the forward pass starts.

// StronglyConnectedCount returns the number of strongly connected
// components of c restricted to alive nodes (alive == nil means all nodes),
// using an iterative Tarjan — safe for graphs far deeper than the goroutine
// stack would allow recursively.
func (c *CSR) StronglyConnectedCount(alive []bool) int {
	var nodes []int32
	for v := 0; v < c.n; v++ {
		if alive == nil || alive[v] {
			nodes = append(nodes, int32(v))
		}
	}
	return newSCCScratch(c.n).partition(c, nodes)
}

// sccScratch is the state of one SCC count over a graph of at most n nodes:
// every buffer but the contracted graph's edges is sized once, here, and
// the refinement allocates nothing.
// The SCCs in play are kept as a partition: the members of each occupy one
// contiguous run of part, and a node's label is where its run starts.
type sccScratch struct {
	// The graph refine walks: the input's out-rows while the final state
	// is labelled, then the contracted graph.
	off []int64
	adj []int32
	// Node x is alive iff x < keep or x >= lo: the contracted graph numbers
	// the final state's SCCs first and the rest in order of death.
	keep, lo int32

	label   []int32 // start of the node's run in part; −1 once out of play
	part    []int32
	end     []int32 // end[s]: where the run starting at part[s] ends
	index   []int32
	lowlink []int32
	onStack []bool
	popped  []int32 // refine's output, SCC by SCC
	stack   []int32
	call    []sccFrame
	coff    []int64 // the contracted graph's row offsets
}

type sccFrame struct {
	v  int32
	ei int64 // next out-edge offset to consider (absolute into adj)
}

func newSCCScratch(n int) *sccScratch {
	return &sccScratch{
		label:   make([]int32, n),
		part:    make([]int32, n),
		end:     make([]int32, n),
		index:   make([]int32, n),
		lowlink: make([]int32, n),
		onStack: make([]bool, n),
		popped:  make([]int32, n),
		stack:   make([]int32, 0, n),
		call:    make([]sccFrame, 0, n),
		coff:    make([]int64, n+1),
	}
}

// partition splits nodes (distinct nodes of c) into their SCCs within the
// subgraph they induce: on return part[:len(nodes)] holds each SCC as one
// run and label[v] is the start of v's run (−1 for every other node). It
// returns the number of SCCs.
func (t *sccScratch) partition(c *CSR, nodes []int32) int {
	for i := range t.label {
		t.label[i] = -1
	}
	for _, v := range nodes {
		t.label[v] = 0
	}
	copy(t.part, nodes)
	t.off, t.adj = c.outOff, c.outAdj
	t.keep, t.lo = int32(c.n), int32(c.n)
	return t.refine(0, int32(len(nodes)))
}

// series sets SCCs at every point of a removal schedule over c: point 0
// before any removal, point p+1 after batches[p]. batches must be disjoint
// from each other and from survivors, the nodes alive at the end; nodes in
// neither are dead throughout.
func (t *sccScratch) series(c *CSR, survivors []int32, batches [][]int32, points []SweepPoint) {
	k := int32(t.partition(c, survivors))
	cores := t.part[:len(survivors)]
	// Renumber: the final state's SCCs become 0..k-1, in part order,
	// and the batch nodes follow in order of death. label is now the map
	// from c's nodes to contracted ids.
	prev, id := int32(-1), int32(-1)
	for _, v := range cores {
		if t.label[v] != prev {
			prev = t.label[v]
			id++
		}
		t.label[v] = id
	}
	nodes := k
	for _, batch := range batches {
		for _, v := range batch {
			t.label[v] = nodes
			nodes++
		}
	}
	adj := make([]int32, t.contract(c, cores, batches, nodes, nil))
	t.contract(c, cores, batches, nodes, adj)

	// Forward: one run holding every node, refined at point 0, then each
	// round refines only the runs its batch cuts.
	t.off, t.adj, t.keep, t.lo = t.coff[:nodes+1], adj, k, k
	for x := int32(0); x < nodes; x++ {
		t.part[x] = x
		t.label[x] = 0
	}
	count := t.refine(0, nodes)
	points[0].SCCs = count
	for p, batch := range batches {
		first := t.lo
		t.lo += int32(len(batch))
		for x := first; x < t.lo; x++ {
			// refine takes every dead member of the run out of play, so
			// a run is refined once however many of its members die.
			if s := t.label[x]; s >= 0 {
				count += t.refine(s, t.end[s]) - 1
			}
		}
		points[p+1].SCCs = count
	}
}

// contract walks the contracted graph's out-rows, sets their offsets in
// coff and returns how many edges they hold, writing the edges to adj
// unless it is nil (a first pass sizes adj exactly). label maps c's nodes
// to contracted ids (−1: not in it); cores lists the final state's nodes
// grouped by id and the batches hold the rest, so ids come in ascending
// order. Node x's row lists each y ≠ x that some member of x has an edge
// to, once.
func (t *sccScratch) contract(c *CSR, cores []int32, batches [][]int32, nodes int32, adj []int32) int {
	// seen[y] == x: x's row already has y. Rows come in ascending x, so the
	// stamps never need clearing within a pass.
	seen := t.index[:nodes]
	for i := range seen {
		seen[i] = -1
	}
	m, cur := 0, int32(-1)
	row := func(v int32) {
		x := t.label[v]
		if x != cur {
			cur = x
			t.coff[x] = int64(m)
		}
		for _, w := range c.outAdj[c.outOff[v]:c.outOff[v+1]] {
			y := t.label[w]
			if y < 0 || y == x || seen[y] == x {
				continue
			}
			seen[y] = x
			if adj != nil {
				adj[m] = y
			}
			m++
		}
	}
	for _, v := range cores {
		row(v)
	}
	for _, batch := range batches {
		for _, v := range batch {
			row(v)
		}
	}
	t.coff[nodes] = int64(m)
	return m
}

// refine splits the SCC whose members fill part[s:e] (all labelled s) into
// the SCCs of its members still alive, using only the edges between them:
// it writes them back over part[s:] one run each, labels every member
// with its run's start, takes the dead members out of play (label −1) and
// returns how many SCCs it found. It is one iterative Tarjan, scoped to the
// run by the label test.
func (t *sccScratch) refine(s, e int32) int {
	const unvisited = -1
	label, index, lowlink, onStack := t.label, t.index, t.lowlink, t.onStack
	off, adj := t.off, t.adj
	for _, x := range t.part[s:e] {
		if x < t.keep || x >= t.lo {
			index[x] = unvisited
		} else {
			label[x] = -1
		}
	}
	// A node keeps label s until its SCC is popped, and the first SCC
	// popped starts at s too; either way a finished node is visited and
	// off the stack, so it takes no further part, as in plain Tarjan.
	out := t.popped[:0]
	stack := t.stack[:0]
	call := t.call[:0]
	var counter int32
	found := 0
	for _, root := range t.part[s:e] {
		if label[root] != s || index[root] != unvisited {
			continue
		}
		index[root], lowlink[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		call = append(call, sccFrame{v: root, ei: off[root]})
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			for f.ei < off[v+1] {
				w := adj[f.ei]
				f.ei++
				if label[w] != s {
					continue
				}
				if index[w] == unvisited {
					index[w], lowlink[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, sccFrame{v: w, ei: off[w]})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if lowlink[v] == index[v] {
				start := s + int32(len(out))
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					label[w] = start
					out = append(out, w)
					if w == v {
						break
					}
				}
				t.end[start] = s + int32(len(out))
				found++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if parent := call[len(call)-1].v; lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
		}
	}
	copy(t.part[s:], out)
	return found
}
