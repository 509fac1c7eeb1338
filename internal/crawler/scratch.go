package crawler

import (
	"slices"
	"sync"
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

// scratchChunk is the capacity of a pooled chunk, in records: 0.75 MiB of
// toots — bodyPool's order of bound on what a worker keeps between
// fetches.
const scratchChunk = 8192

// scratchPool recycles the scratches of one record type.
type scratchPool[T any] struct{ pool sync.Pool }

func (p *scratchPool[T]) get() *scratch[T] {
	if s, ok := p.pool.Get().(*scratch[T]); ok {
		return s
	}
	return &scratch[T]{chunk: make([]T, 0, scratchChunk)}
}

// put takes s back. The chunk is zeroed first: the pool must not keep a
// finished result's strings alive. A chunk that a page longer than any
// Mastodon serves has grown is dropped, as putBuf drops an oversized body.
func (p *scratchPool[T]) put(s *scratch[T]) {
	s.cut(0)
	if cap(s.chunk) == scratchChunk {
		s.full, s.n = nil, 0
		p.pool.Put(s)
	}
}

// cut drops the chunk's records from i on, zeroing them like put.
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
