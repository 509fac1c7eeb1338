package dataset

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fuzzCursor doles out bounded values from fuzz input, zero once drained,
// so any byte string deterministically describes a base world plus two
// campaign window fragments.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

func (c *fuzzCursor) intn(n int) int { return int(c.next()) % n }

func (c *fuzzCursor) trace(slots int) *sim.Trace {
	tr := sim.NewTrace(slots)
	for s := 0; s < slots; s++ {
		if c.next()&1 == 1 {
			tr.SetDown(s)
		}
	}
	return tr
}

func fuzzAcct(dom string, k int) string { return fmt.Sprintf("u%d@%s", k, dom) }

// fuzzBase assembles a small world over [0, slots) from the cursor.
func fuzzBase(c *fuzzCursor) (*World, []string) {
	ndom := 1 + c.intn(4)
	slots := 1 + c.intn(6)
	parts := WorldParts{
		Traces: &sim.TraceSet{SlotsPerDay: SlotsPerDay, Traces: make([]*sim.Trace, ndom)},
	}
	var accts []string
	for i := 0; i < ndom; i++ {
		dom := fmt.Sprintf("d%d.x", i)
		parts.Instances = append(parts.Instances, Instance{
			ID: int32(i), Domain: dom, GoneDay: -1,
			Software: SoftwareMastodon, Open: c.next()&1 == 1,
			Users: c.intn(5), Toots: int64(c.intn(20)),
		})
		parts.Traces.Traces[i] = c.trace(slots)
		for k := 0; k < c.intn(3); k++ {
			a := fuzzAcct(dom, k)
			parts.Toots = append(parts.Toots, 1+c.intn(3))
			accts = append(accts, a)
		}
	}
	parts.Accounts = accts
	parts.Followers = make([][]int32, len(accts))
	for e := 0; e < c.intn(4) && len(accts) > 0; e++ {
		from, to := c.intn(len(accts)), c.intn(len(accts))
		parts.Followers[to] = append(parts.Followers[to], int32(from))
	}
	return Assemble(parts)
}

// fuzzDelta builds one window fragment starting at start over the base
// world's domains (plus possibly a fresh one), obeying the Merge input
// contract so the fuzz explores merge algebra, not input validation.
func fuzzDelta(c *fuzzCursor, prev *World, start, windowIdx int) *WindowDelta {
	slots := 1 + c.intn(5)
	var domains []string
	for i := range prev.Instances {
		if c.next()&1 == 1 {
			domains = append(domains, prev.Instances[i].Domain)
		}
	}
	if c.next()&1 == 1 {
		domains = append(domains, fmt.Sprintf("w%d.x", windowIdx))
	}
	d := &WindowDelta{
		StartSlot: start,
		Slots:     slots,
		Domains:   domains,
		Traces:    &sim.TraceSet{SlotsPerDay: SlotsPerDay, Traces: make([]*sim.Trace, len(domains))},
		Meta:      make([]WindowMeta, len(domains)),
		Crawl:     make([]CrawlOutcome, len(domains)),
		TootsOf:   map[string]int{},
	}
	var harvested []string
	for i, dom := range domains {
		d.Traces.Traces[i] = c.trace(slots)
		if c.next()&1 == 1 {
			d.Meta[i] = WindowMeta{
				Seen: true, Software: SoftwareMastodon,
				Open: c.next()&1 == 1, Users: c.intn(6), Toots: int64(c.intn(30)),
			}
		}
		d.Crawl[i] = CrawlOutcome(c.intn(4))
		if d.Crawl[i] == CrawlFull || d.Crawl[i] == CrawlDelta {
			harvested = append(harvested, dom)
		}
	}
	var accts []string
	for _, dom := range harvested {
		for k := 0; k < c.intn(3); k++ {
			a := fuzzAcct(dom, k)
			d.TootsOf[a] = 1 + c.intn(3)
			accts = append(accts, a)
		}
	}
	var pairs [][2]string
	for e := 0; e < c.intn(4) && len(accts) > 0; e++ {
		pairs = append(pairs, [2]string{accts[c.intn(len(accts))], accts[c.intn(len(accts))]})
	}
	d.Accounts, d.Followers = scrape(pairs...)
	return d
}

func fuzzSave(t *testing.T, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWorldMerge pins the merge algebra: folding two time-disjoint window
// fragments into a base world must not depend on the order the fragments
// are passed in, and repeating the merge must reproduce the same bytes —
// the byte-stability contract of the incremental recrawl subsystem.
func FuzzWorldMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("incremental"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0xa5}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzCursor{data: data}
		prev, prevNames := fuzzBase(c)
		start := prev.Traces.Slots()
		d1 := fuzzDelta(c, prev, start, 1)
		d2 := fuzzDelta(c, prev, start+d1.Slots, 2)

		w12, n12, err12 := Merge(prev, prevNames, d1, d2)
		w21, n21, err21 := Merge(prev, prevNames, d2, d1)
		if (err12 == nil) != (err21 == nil) {
			t.Fatalf("merge order changed the verdict: %v vs %v", err12, err21)
		}
		if err12 != nil {
			// The generators obey the input contract; any rejection is a
			// merge bug, not fuzz noise.
			t.Fatalf("contract-valid merge rejected: %v", err12)
		}
		if len(n12) != len(n21) {
			t.Fatalf("orders disagree on population: %d vs %d accounts", len(n12), len(n21))
		}
		for i := range n12 {
			if n12[i] != n21[i] {
				t.Fatalf("account %d differs by order: %q vs %q", i, n12[i], n21[i])
			}
		}
		b12, b21 := fuzzSave(t, w12), fuzzSave(t, w21)
		if !bytes.Equal(b12, b21) {
			t.Fatal("merge of disjoint windows is not commutative")
		}
		wAgain, _, err := Merge(prev, prevNames, d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b12, fuzzSave(t, wAgain)) {
			t.Fatal("repeated merge produced different bytes")
		}
	})
}
