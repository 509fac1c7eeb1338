package graph

// This file implements the sweep engine behind Figs 12 and 13 (DESIGN.md).
// A Sweeper runs Fig 12's iterative degree removal over buffers allocated
// once per sweep; every point series, Fig 12's and RemoveBatches', is then
// computed by replaying the recorded schedule backwards (reverseSweep), and
// its SCC axis by the decremental engine in scc.go.

// Sweeper runs removal sweeps over one frozen graph with reusable buffers.
// A Sweeper is stateful (it carries the alive mask between rounds) and not
// safe for concurrent use; create one per goroutine.
type Sweeper struct {
	c          *CSR
	alive      []bool
	aliveCount int
	removed    int

	// IterativeDegreeRemoval scratch: alive-degrees kept current across
	// rounds, counting-sort buckets (len MaxDegree+2), and the removal order
	// — every round's victims back to back, then the survivors.
	deg    []int32
	degCnt []int64
	order  []int32
}

// NewSweeper returns a Sweeper over c with every node alive. All sweep
// buffers are allocated here, once.
func NewSweeper(c *CSR) *Sweeper {
	n := c.n
	s := &Sweeper{
		c:          c,
		alive:      make([]bool, n),
		aliveCount: n,
		deg:        make([]int32, n),
		degCnt:     make([]int64, c.MaxDegree()+2),
		order:      make([]int32, n),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	return s
}

// Reset revives every node and zeroes the removal counter, so one Sweeper
// can run many sweeps.
func (s *Sweeper) Reset() {
	for i := range s.alive {
		s.alive[i] = true
	}
	s.aliveCount = s.c.n
	s.removed = 0
}

// Alive exposes the current alive mask (read-only for callers).
func (s *Sweeper) Alive() []bool { return s.alive }

// Removed returns the cumulative number of nodes removed since the last
// Reset.
func (s *Sweeper) Removed() int { return s.removed }

// IterativeDegreeRemoval reproduces the Fig 12 methodology: in each of
// rounds iterations, remove the top fraction (e.g. 0.01) of the remaining
// nodes by alive-degree (degree within the remaining subgraph), ties
// towards lower ids, then measure. The returned slice has rounds+1 points
// (index 0 = the graph as it stood).
//
// Alive-degrees are counted once and then only decremented as victims die.
// The forward pass only decides who dies when; every quantity of every
// point comes from one reverseSweep over the recorded rounds.
func (s *Sweeper) IterativeDegreeRemoval(fraction float64, rounds int, opt SweepOptions) []SweepPoint {
	if fraction <= 0 || fraction > 1 {
		panic("graph: IterativeDegreeRemoval fraction must be in (0,1]")
	}
	removedBefore := s.removed
	maxDeg := s.countDegrees()
	batches := make([][]int32, 0, rounds)
	victims := 0
	for r := 0; r < rounds && s.aliveCount > 0; r++ {
		k := int(float64(s.aliveCount) * fraction)
		if k < 1 {
			k = 1
		}
		if k > s.aliveCount {
			k = s.aliveCount
		}
		batch := s.removeTopK(k, maxDeg, s.order[victims:victims])
		batches = append(batches, batch)
		victims += len(batch)
	}
	survivors := s.order[victims:victims]
	for v, alive := range s.alive {
		if alive {
			survivors = append(survivors, int32(v))
		}
	}
	return reverseSweep(s.c, survivors, batches, removedBefore, opt)
}

// countDegrees sets deg[v] to the alive-degree of every alive node — one
// scan of the merged undirected rows, which counts each surviving edge at
// both endpoints — and returns the largest.
func (s *Sweeper) countDegrees() (maxDeg int) {
	c := s.c
	for v := 0; v < c.n; v++ {
		if !s.alive[v] {
			continue
		}
		d := 0
		for _, w := range c.undAdj[c.undOff[v]:c.undOff[v+1]] {
			if s.alive[w] {
				d++
			}
		}
		s.deg[v] = int32(d)
		maxDeg = max(maxDeg, d)
	}
	return maxDeg
}

// removeTopK kills the k alive nodes with the highest alive-degree, ties
// towards lower ids, appends them to batch and brings deg up to date,
// without allocating. No alive degree exceeds maxDeg. The whole batch is
// chosen on the degrees the round started with; only then do the
// survivors' degrees drop by their edges into it.
func (s *Sweeper) removeTopK(k, maxDeg int, batch []int32) []int32 {
	c := s.c
	// Counting pass: how many alive nodes hold each degree.
	cnt := s.degCnt[:maxDeg+1]
	clear(cnt)
	for v := 0; v < c.n; v++ {
		if s.alive[v] {
			cnt[s.deg[v]]++
		}
	}
	// Find the threshold degree t: every node with degree > t is removed,
	// and `need` nodes of degree exactly t (lowest ids first) fill the rest.
	removed := 0
	t := maxDeg
	for ; t >= 0; t-- {
		if removed+int(cnt[t]) >= k {
			break
		}
		removed += int(cnt[t])
	}
	need := k - removed
	for v := 0; v < c.n && k > 0; v++ {
		if !s.alive[v] {
			continue
		}
		d := int(s.deg[v])
		if d < t || (d == t && need == 0) {
			continue
		}
		if d == t {
			need--
		}
		s.kill(int32(v))
		batch = append(batch, int32(v))
		k--
	}
	for _, v := range batch {
		for _, w := range c.undAdj[c.undOff[v]:c.undOff[v+1]] {
			s.deg[w]-- // also on dead w, whose deg is never read again
		}
	}
	return batch
}

func (s *Sweeper) kill(v int32) {
	s.alive[v] = false
	s.aliveCount--
	s.removed++
}

// RemoveBatches removes the given batches of nodes one batch at a time and
// returns a SweepPoint before any removal and after each batch. Nodes listed
// twice are only removed once: a node dies with the batch that first lists
// it. This is the engine behind Fig 13 (batches of one instance, or one AS's
// worth of instances). It buckets every node by that batch, so that
// reverseSweep sees disjoint batches and the survivors.
func RemoveBatches(c *CSR, batches [][]int32, opt SweepOptions) []SweepPoint {
	n := c.n
	numPoints := len(batches) + 1
	// death[v] = first point index at which v is dead (numPoints = never):
	// a node first listed in batch b is dead from point b+1 on.
	death := make([]int32, n)
	for i := range death {
		death[i] = int32(numPoints)
	}
	for b, batch := range batches {
		for _, v := range batch {
			if death[v] == int32(numPoints) {
				death[v] = int32(b + 1)
			}
		}
	}
	byDeath := make([][]int32, numPoints+1)
	for v := 0; v < n; v++ {
		byDeath[death[v]] = append(byDeath[death[v]], int32(v))
	}
	return reverseSweep(c, byDeath[numPoints], byDeath[1:numPoints], 0, opt)
}

// reverseSweep computes the point series of a removal schedule by replaying
// it backwards (DESIGN.md): start from the survivors and re-activate each
// batch in reverse, unioning incrementally. batches must be disjoint from
// each other and from survivors; nodes in neither were dead before the
// sweep and stay dead, and removedBefore counts them into Removed. Every
// edge is processed O(1) times across the whole sweep — O(m·α + points·n)
// total instead of O(points·(n+m)) — and the component count, largest size
// and largest-component weight are maintained in O(1) per union under the
// canonical tie-break, so the output is byte-identical to measuring every
// point from scratch. With opt.WithSCC the SCC engine (scc.go) fills SCCs;
// otherwise it is -1 at every point.
func reverseSweep(c *CSR, survivors []int32, batches [][]int32, removedBefore int, opt SweepOptions) []SweepPoint {
	n := c.n
	numPoints := len(batches) + 1
	points := make([]SweepPoint, numPoints)

	var totalWeight float64
	for _, w := range opt.Weights {
		totalWeight += w
	}

	parent := make([]int32, n)
	size := make([]int32, n)
	minMem := make([]int32, n) // smallest member id per root (canonical tie-break)
	active := make([]bool, n)
	var wsum []float64 // per-root weight mass
	if opt.Weights != nil {
		wsum = make([]float64, n)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	comps := 0
	largestSize := 0
	var largestRoot int32 = -1
	// updateBest re-evaluates the canonical largest component when root r's
	// component reaches size s.
	updateBest := func(r int32, s int) {
		switch {
		case s > largestSize:
			largestSize = s
			largestRoot = r
		case s == largestSize && (largestRoot < 0 || minMem[r] < minMem[largestRoot]):
			largestRoot = r
		}
	}
	activate := func(v int32) {
		active[v] = true
		parent[v] = v
		size[v] = 1
		minMem[v] = v
		if wsum != nil && int(v) < len(opt.Weights) {
			wsum[v] = opt.Weights[v]
		}
		comps++
		updateBest(v, 1)
		// Union with already-active neighbours over the merged undirected
		// view: each surviving edge is unioned exactly when its later
		// endpoint activates.
		rv := v
		for _, w := range c.undAdj[c.undOff[v]:c.undOff[v+1]] {
			if !active[w] {
				continue
			}
			rv = find(rv)
			rw := find(w)
			if rv == rw {
				continue
			}
			if size[rv] < size[rw] {
				rv, rw = rw, rv
			}
			parent[rw] = rv
			size[rv] += size[rw]
			if minMem[rw] < minMem[rv] {
				minMem[rv] = minMem[rw]
			}
			if wsum != nil {
				wsum[rv] += wsum[rw]
			}
			comps--
			updateBest(rv, int(size[rv]))
		}
	}
	// removed counts down from the schedule's end as batches come back.
	removed := removedBefore
	for _, batch := range batches {
		removed += len(batch)
	}
	record := func(p int) {
		sp := SweepPoint{
			Removed:    removed,
			LCCFrac:    float64(largestSize) / float64(n),
			Components: comps,
			SCCs:       -1,
		}
		if opt.Weights != nil && totalWeight > 0 && largestRoot >= 0 {
			sp.LCCWeightFrac = wsum[find(largestRoot)] / totalWeight
		}
		points[p] = sp
	}
	for _, v := range survivors {
		activate(v)
	}
	record(numPoints - 1)
	for p := numPoints - 2; p >= 0; p-- {
		for _, v := range batches[p] {
			activate(v)
		}
		removed -= len(batches[p])
		record(p)
	}
	if opt.WithSCC {
		newSCCScratch(n).series(c, survivors, batches, points)
	}
	return points
}
