package instance

import (
	"sync"
	"sync/atomic"
)

// The render memo. One server's paged API shows a status again on every
// overlapping max_id page, and again on the head page after each delivery,
// so a server renders a status once, the first time a timeline page needs
// it, and a cached timeline page holds the ids of its statuses' renders,
// not bytes. A hit joins the renders into one buffer; a miss renders only
// the rows the memo lacks.
//
// A row names its render in its memo slot: the render's id in the store
// that takes new renders, plus one (0: none). A store keeps renders in
// blocks, one per miss that rendered anything, each holding that miss's
// renders in page order, separated by commas, and exactly as long; ids
// count up through a block, and locs maps an id to its block and offset. So
// page statuses whose renders are consecutive in a block, as a page that
// rendered them all has them, join as one copy. Nothing a store has
// published is written again, so a hit reads it without taking a lock.
// Compaction renumbers rows and so starts a new store; a page cached before
// keeps the store it refers to alive until its own generation dies.

// memoCapacity is the number of ids a row's three-byte slot can name. The
// next miss after a store holds that many renders starts a new store. It is
// a variable so that a test can fill a store.
var memoCapacity = 1<<24 - 1

// renderMemo is a tootStore's memo. mu guards cur, the appends to it and
// every row's memo slot, so that misses, which hold the Server's read lock
// only, can add renders; compaction, under the write lock, replaces cur.
type renderMemo struct {
	mu  sync.Mutex
	cur *memoStore
}

// memoStore is one generation of a memo's renders.
type memoStore struct {
	blocks pubVec[[]byte]
	locs   pubVec[uint64] // by id: block index<<32 | offset<<1 | 1 if last in its block (a block is far below 2 GB)
}

// renderEnd returns where the render of id ends in its block b.
func renderEnd(locs []uint64, id uint32, b []byte) int {
	if locs[id]&1 != 0 {
		return len(b)
	}
	return int(uint32(locs[id+1])>>1) - 1 // the next render, after a comma, in the same block
}

// pubVec is an append-only vector that readers index without a lock. Its
// owner appends under a lock; a reader loads the array and reads only
// elements published to it through something that synchronises, here the
// page cache's lock. An element is never written after its append, and
// growth copies into a new array, so an array loaded before a growth still
// reads the same.
type pubVec[T any] struct {
	arr atomic.Pointer[[]T] // the whole backing array
	n   int                 // elements appended; guarded by the owner's lock
}

func (v *pubVec[T]) all() []T {
	if p := v.arr.Load(); p != nil {
		return *p
	}
	return nil
}

// push appends x and returns its index.
func (v *pubVec[T]) push(x T) int {
	a := v.all()
	if v.n < len(a) {
		a[v.n] = x
	} else {
		a = append(a[:v.n:v.n], x)
		a = a[:cap(a)]
		v.arr.Store(&a)
	}
	v.n++
	return v.n - 1
}

func (r *tootRow) memoID() uint32 {
	return uint32(r.memo[0]) | uint32(r.memo[1])<<8 | uint32(r.memo[2])<<16
}

func (r *tootRow) setMemoID(v uint32) { r.memo = [3]byte{byte(v), byte(v >> 8), byte(v >> 16)} }

// memoised reports whether the memo holds the row's render, and so that
// the row is public: only public rows are rendered.
func (r *tootRow) memoised() bool { return r.memo != [3]byte{} }

// openMemo returns the store that takes new renders, starting one if there
// is none or the current one is full. Must be called with st.memo.mu and the
// Server's read lock held.
func (st *tootStore) openMemo() *memoStore {
	m := &st.memo
	if m.cur != nil && m.cur.locs.n >= memoCapacity {
		for i := range st.rows {
			st.rows[i].memo = [3]byte{}
		}
		m.cur = nil
	}
	if m.cur == nil {
		m.cur = new(memoStore)
	}
	return m.cur
}

// timelinePage is a cached timeline page: its statuses' render ids, newest
// first, and the store that holds them.
type timelinePage struct {
	memo *memoStore
	refs []uint32
}

// appendJSON appends the page as the API serves it: "[", the renders
// separated by ",", "]\n". A run of ids consecutive in one block is one
// copy, its commas included.
func (p timelinePage) appendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	if len(p.refs) > 0 {
		blocks, locs := p.memo.blocks.all(), p.memo.locs.all()
		for i := 0; i < len(p.refs); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			first := p.refs[i]
			for i+1 < len(p.refs) && p.refs[i+1] == p.refs[i]+1 && locs[p.refs[i]]&1 == 0 {
				i++
			}
			b := blocks[locs[first]>>32]
			dst = append(dst, b[uint32(locs[first])>>1:renderEnd(locs, p.refs[i], b)]...)
		}
	}
	return append(dst, "]\n"...)
}

// memoScratch is one miss's working memory.
type memoScratch struct {
	rows    []uint32 // the page's rows
	missing []int    // positions in rows this miss renders; -1 once another miss has
	ends    []int    // by missing: where its render ends in buf
	buf     []byte
}

var memoScratches = sync.Pool{New: func() any { return new(memoScratch) }}

// renderTimeline selects one timeline page and returns it as render ids,
// rendering and storing the statuses the memo lacks in one new block.
func (s *Server) renderTimeline(kind Timeline, maxID, sinceID int64, limit int) timelinePage {
	sc := memoScratches.Get().(*memoScratch)
	defer memoScratches.Put(sc)
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, m := &s.store, &s.store.memo

	m.mu.Lock()
	ms := st.openMemo()
	sc.rows = s.pageRows(sc.rows[:0], kind, maxID, sinceID, limit, (*tootRow).memoised)
	p := timelinePage{memo: ms, refs: make([]uint32, len(sc.rows))}
	sc.missing = sc.missing[:0]
	for i, ri := range sc.rows {
		if v := st.rows[ri].memoID(); v != 0 {
			p.refs[i] = v - 1
		} else {
			sc.missing = append(sc.missing, i)
		}
	}
	m.mu.Unlock()
	if len(sc.missing) == 0 {
		return p
	}

	// Rendered outside the memo's lock: misses on one server render in
	// parallel, as they did before there was a memo.
	sc.buf, sc.ends = sc.buf[:0], sc.ends[:0]
	for _, i := range sc.missing {
		sc.buf = s.appendStatusRow(sc.buf, &st.rows[sc.rows[i]])
		sc.ends = append(sc.ends, len(sc.buf))
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// A render another miss stored meanwhile is used, not stored twice;
	// while the store has not been replaced as full, the slots still name it.
	live := m.cur == ms
	size, kept, start := 0, 0, 0
	for j, i := range sc.missing {
		if v := st.rows[sc.rows[i]].memoID(); live && v != 0 {
			p.refs[i], sc.missing[j] = v-1, -1
		} else {
			size, kept = size+sc.ends[j]-start, kept+1
		}
		start = sc.ends[j]
	}
	if kept == 0 {
		return p
	}
	block, bi := make([]byte, 0, size+kept-1), uint64(ms.blocks.n)
	start = 0
	for j, i := range sc.missing {
		r := sc.buf[start:sc.ends[j]]
		start = sc.ends[j]
		if i < 0 {
			continue
		}
		if len(block) > 0 {
			block = append(block, ',')
		}
		loc := bi<<32 | uint64(len(block))<<1
		if kept--; kept == 0 {
			loc |= 1
		}
		id := ms.locs.push(loc)
		block = append(block, r...)
		p.refs[i] = uint32(id)
		if live && id < memoCapacity {
			st.rows[sc.rows[i]].setMemoID(uint32(id + 1))
		}
	}
	ms.blocks.push(block)
	return p
}
