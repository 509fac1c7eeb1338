package crawler

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/wire"
)

// A scratch accumulates a result whose length is unknown until it is
// complete — a timeline's toots — without growing a slice all the way
// there, which allocates the result several times over.
// Records are appended to a pooled chunk of fixed capacity; a chunk that
// fills up is copied aside at its exact size; result copies everything out
// once. A result that fits the chunk, as nearly all do, is allocated once,
// at its size, and a larger one twice — what appending page-sized slices
// and concatenating them cost for every result.
type scratch[T any] struct {
	chunk []T   // the pooled chunk: append to it, cut it, between spills
	full  [][]T // the chunks spill has set aside
	n     int   // how many records those hold
}

// scratchChunk is the capacity of a pooled chunk, in records: 448 KiB of
// toots — bodyPool's order of bound on what a worker keeps between
// fetches.
const scratchChunk = 8192

// reset empties s for the next result. The chunk is zeroed first: a pool
// must not keep a finished result's pointers alive. It reports whether the
// chunk is still one a pool keeps: one that a page longer than any
// Mastodon serves has grown is dropped, as putBuf drops an oversized body.
func (s *scratch[T]) reset() bool {
	s.cut(0)
	s.full, s.n = nil, 0
	return cap(s.chunk) == scratchChunk
}

// cut drops the chunk's records from i on, zeroing them like reset.
func (s *scratch[T]) cut(i int) {
	clear(s.chunk[i:])
	s.chunk = s.chunk[:i]
}

// spill sets the chunk aside when fewer than room slots are left in it. It
// is called between pages, with the most records a page holds.
func (s *scratch[T]) spill(room int) {
	if cap(s.chunk)-len(s.chunk) >= room {
		return
	}
	s.full = append(s.full, slices.Clone(s.chunk))
	s.n += len(s.chunk)
	s.cut(0)
}

// result returns everything accumulated, in order, in a slice of its own:
// nil if that is nothing.
func (s *scratch[T]) result() []T {
	switch {
	case len(s.full) > 0:
		return slices.Concat(append(s.full, s.chunk)...)
	case len(s.chunk) > 0:
		return slices.Clone(s.chunk)
	}
	return nil
}

// A harvest is a toot crawl's working storage, pooled: the records in a
// scratch, and the storage they point into, which result copies out at its
// size. Storage grows only with a record, in record order, so a record's
// spans say where the storage stood when it was added.
type harvest struct {
	recs    scratch[TootRec]
	content []byte            // the records' contents, back to back
	tags    []string          // the records' hashtags, back to back
	authors []string          // the records' distinct authors, in first-seen order
	ids     map[string]int32  // authors' indexes
	names   map[string]string // the crawl's tag names, one string each
}

// A mark is where a harvest stood before a page: the records in the chunk
// and the authors.
type mark struct{ recs, authors int }

// maxHarvestTable caps the tags and the map entries a pooled harvest may
// have held: a cleared map keeps its size, and one large crawl must not
// pin it.
const maxHarvestTable = scratchChunk

var harvestPool = sync.Pool{New: func() any {
	return &harvest{
		recs: scratch[TootRec]{chunk: make([]TootRec, 0, scratchChunk)},
		ids:  make(map[string]int32), names: make(map[string]string),
	}
}}

func getHarvest() *harvest { return harvestPool.Get().(*harvest) }

// putHarvest takes h back empty, holding no string of the crawl. A harvest
// that a large crawl grew past a body buffer's bound or maxHarvestTable is
// dropped instead.
func putHarvest(h *harvest) {
	if !h.recs.reset() || cap(h.content) > maxPooledBuf || cap(h.tags) > maxHarvestTable ||
		len(h.ids) > maxHarvestTable || len(h.names) > maxHarvestTable {
		return
	}
	clear(h.tags)
	clear(h.authors)
	clear(h.ids)
	clear(h.names)
	h.content, h.tags, h.authors = h.content[:0], h.tags[:0], h.authors[:0]
	harvestPool.Put(h)
}

func (h *harvest) mark() mark { return mark{len(h.recs.chunk), len(h.authors)} }

// errHarvestFull ends a harvest whose storage a record's spans can no
// longer address.
var errHarvestFull = errors.New("crawler: harvest holds 4 GiB of content or tags")

// add appends a status to the harvest, or reports why it is not a toot.
func (h *harvest) add(v *wire.StatusView) error {
	rec, err := tootOf(v)
	if err != nil {
		return err
	}
	if uint64(len(h.content)+len(v.Content)) > math.MaxUint32 || uint64(len(h.tags)+len(v.Tags)) > math.MaxUint32 {
		return errHarvestFull
	}
	rec.text = uint32(len(h.content))
	h.content = append(h.content, v.Content...)
	rec.textEnd = uint32(len(h.content))
	rec.tag = uint32(len(h.tags))
	for _, name := range v.Tags {
		s, ok := h.names[string(name)]
		if !ok {
			s = string(name)
			h.names[s] = s
		}
		h.tags = append(h.tags, s)
	}
	rec.tagEnd = uint32(len(h.tags))
	k, ok := h.ids[string(v.Acct)]
	if !ok {
		k = int32(len(h.authors))
		acct := string(v.Acct)
		h.ids[acct] = k
		h.authors = append(h.authors, acct)
	}
	rec.Author = k
	h.recs.chunk = append(h.recs.chunk, rec)
	return nil
}

// cut drops the chunk's records from i on, m being the mark of the page
// they are in, and with them the storage only they use: their contents and
// tags, and the authors the page's records from i on introduced — the ones
// numbered past every author the records before i name.
func (h *harvest) cut(m mark, i int) {
	recs := h.recs.chunk
	if i == len(recs) {
		return
	}
	n := m.authors
	for _, r := range recs[m.recs:i] {
		n = max(n, int(r.Author)+1)
	}
	for _, a := range h.authors[n:] {
		delete(h.ids, a)
	}
	clear(h.authors[n:])
	h.authors = h.authors[:n]
	h.content = h.content[:recs[i].text]
	clear(h.tags[recs[i].tag:])
	h.tags = h.tags[:recs[i].tag]
	h.recs.cut(i)
}

// result hands the harvest's toots to out, each piece at its size and nil
// when empty.
func (h *harvest) result(out *InstanceCrawl) {
	out.Toots = h.recs.result()
	out.content = string(h.content)
	if len(h.tags) > 0 {
		out.tags = slices.Clone(h.tags)
	}
	if len(h.authors) > 0 {
		out.Authors = slices.Clone(h.authors)
	}
}
