package graph

import "sort"

// One obviously-correct reference per algorithm, written against the
// CSR's public rows (Out/In) and nothing else. The property tests hold
// the production engines to these; they allocate freely and rebuild all
// state at every step, which is what makes them easy to believe.

// refWCC finds weakly connected components by queue BFS over Out and In.
// roots[v] is the smallest node id of v's component (−1 for dead nodes), and
// the largest component ties towards the smallest member id, because seeds
// are tried in ascending order and only a strictly larger component wins.
func refWCC(c *CSR, alive []bool) WCCResult {
	n := c.NumNodes()
	isAlive := func(v int32) bool { return alive == nil || alive[v] }
	roots := make([]int32, n)
	for i := range roots {
		roots[i] = -1
	}
	res := WCCResult{roots: roots, LargestRoot: -1}
	for s := int32(0); int(s) < n; s++ {
		if !isAlive(s) || roots[s] >= 0 {
			continue
		}
		res.NumComponents++
		roots[s] = s
		queue := []int32{s}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, row := range [][]int32{c.Out(v), c.In(v)} {
				for _, w := range row {
					if isAlive(w) && roots[w] < 0 {
						roots[w] = s
						queue = append(queue, w)
					}
				}
			}
		}
		res.AliveNodes += len(queue)
		if len(queue) > res.LargestSize {
			res.LargestSize = len(queue)
			res.LargestRoot = s
		}
	}
	return res
}

// refSCC counts strongly connected components from the definition: u and v
// share a component iff each reaches the other, so every alive node whose
// component (forward-reachable ∩ backward-reachable) has no smaller member
// stands for exactly one component.
func refSCC(c *CSR, alive []bool) int {
	n := c.NumNodes()
	isAlive := func(v int32) bool { return alive == nil || alive[v] }
	reach := func(s int32, next func(int32) []int32) []bool {
		seen := make([]bool, n)
		seen[s] = true
		queue := []int32{s}
		for head := 0; head < len(queue); head++ {
			for _, w := range next(queue[head]) {
				if isAlive(w) && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		return seen
	}
	count := 0
	for s := int32(0); int(s) < n; s++ {
		if !isAlive(s) {
			continue
		}
		fwd, bwd := reach(s, c.Out), reach(s, c.In)
		smallest := true
		for v := int32(0); v < s; v++ {
			if fwd[v] && bwd[v] {
				smallest = false
				break
			}
		}
		if smallest {
			count++
		}
	}
	return count
}

// refInduce returns the quotient graph's edge set, deduplicated by a map.
func refInduce(c *CSR, group []int32) map[[2]int32]bool {
	set := make(map[[2]int32]bool)
	for u := int32(0); int(u) < c.NumNodes(); u++ {
		for _, v := range c.Out(u) {
			if group[u] != group[v] {
				set[[2]int32{group[u], group[v]}] = true
			}
		}
	}
	return set
}

// refTopBy returns the n alive nodes with the highest score, descending,
// ties towards lower ids, by a full comparison sort.
func refTopBy(c *CSR, n int, alive []bool, score func(int32) int) []int32 {
	nodes := []int32{}
	for v := int32(0); int(v) < c.NumNodes(); v++ {
		if alive == nil || alive[v] {
			nodes = append(nodes, v)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if si, sj := score(nodes[i]), score(nodes[j]); si != sj {
			return si > sj
		}
		return nodes[i] < nodes[j]
	})
	if n > len(nodes) {
		n = len(nodes)
	}
	return nodes[:n]
}

// refMeasure computes one SweepPoint from scratch.
func refMeasure(c *CSR, alive []bool, removed int, opt SweepOptions) SweepPoint {
	res := refWCC(c, alive)
	p := SweepPoint{
		Removed:    removed,
		LCCFrac:    float64(res.LargestSize) / float64(c.NumNodes()),
		Components: res.NumComponents,
		SCCs:       -1,
	}
	if opt.Weights != nil {
		var total, lcc float64
		for v, w := range opt.Weights {
			total += w
			if res.InLargest(int32(v)) {
				lcc += w
			}
		}
		if total > 0 {
			p.LCCWeightFrac = lcc / total
		}
	}
	if opt.WithSCC {
		p.SCCs = refSCC(c, alive)
	}
	return p
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

// refRemoveBatches is the forward batch sweep: kill a batch, measure from
// scratch, repeat.
func refRemoveBatches(c *CSR, batches [][]int32, opt SweepOptions) []SweepPoint {
	alive := allAlive(c.NumNodes())
	removed := 0
	points := []SweepPoint{refMeasure(c, alive, removed, opt)}
	for _, batch := range batches {
		for _, v := range batch {
			if alive[v] {
				alive[v] = false
				removed++
			}
		}
		points = append(points, refMeasure(c, alive, removed, opt))
	}
	return points
}

// refIterativeDegreeRemoval is the Fig 12 sweep as the Sweeper ran it before
// it kept degrees between rounds: per round, recount every alive node's
// degree within the surviving subgraph, sort, kill the top fraction, measure
// from scratch. dead lists nodes removed before the sweep starts.
func refIterativeDegreeRemoval(c *CSR, dead []int32, fraction float64, rounds int, opt SweepOptions) []SweepPoint {
	alive := allAlive(c.NumNodes())
	aliveCount, removed := c.NumNodes(), 0
	for _, v := range dead {
		if alive[v] {
			alive[v] = false
			aliveCount--
			removed++
		}
	}
	points := []SweepPoint{refMeasure(c, alive, removed, opt)}
	for r := 0; r < rounds && aliveCount > 0; r++ {
		k := int(float64(aliveCount) * fraction)
		if k < 1 {
			k = 1
		}
		top := refTopBy(c, k, alive, func(v int32) int {
			d := 0
			for _, row := range [][]int32{c.Out(v), c.In(v)} {
				for _, w := range row {
					if alive[w] {
						d++
					}
				}
			}
			return d
		})
		for _, v := range top {
			alive[v] = false
		}
		aliveCount -= len(top)
		removed += len(top)
		points = append(points, refMeasure(c, alive, removed, opt))
	}
	return points
}
