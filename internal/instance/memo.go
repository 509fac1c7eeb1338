package instance

import (
	"sync"
	"sync/atomic"
)

// The render memo, which is the timeline cache. One server's paged API
// shows a status again on every overlapping max_id page, and again on the
// head page after each delivery, so a server renders a status once, the
// first time a timeline page needs it. A timeline page itself is not kept:
// a 200 selects its rows and joins their renders into one buffer, rendering
// only the rows the memo lacks. So a query leaves nothing behind but the
// renders of the statuses it showed.
//
// A row names its render in its memo slot: the render's id in the store
// that takes new renders, plus one (0: none). A store keeps renders in
// blocks, one per page that rendered anything, each holding that page's
// renders in page order, separated by commas, and exactly as long; ids
// count up through a block, and locs maps an id to its block and offset. So
// page statuses whose renders are consecutive in a block, as a page that
// rendered them all has them, join as one copy. Nothing a store has
// published is written again, so a join reads it without taking a lock.
// Compaction renumbers rows and so starts a new store; the old one is
// garbage once the pages joining from it are written.

// memoCapacity is the number of ids a row's three-byte slot can name. The
// next timeline page served after a store holds that many renders starts a
// new store. It is a variable so that a test can fill a store.
var memoCapacity = 1<<24 - 1

// renderMemo is a tootStore's memo. mu guards cur, the appends to it and
// every row's memo slot, so that timeline pages, which hold the Server's
// read lock only, can add renders; compaction, under the write lock,
// replaces cur.
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
// memo's lock, under which the reader took the ids it reads. An element is
// never written after its append, and growth copies into a new array, so an
// array loaded before a growth still reads the same.
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

// maxPageStatuses is the most statuses a timeline page shows: Mastodon caps
// limit at 40.
const maxPageStatuses = 40

// appendTimeline appends one timeline page as the API serves it: "[", its
// statuses' renders separated by ",", "]\n"; limit is at most
// maxPageStatuses. A status the memo holds is copied from its render, a run
// of renders consecutive in one block as one copy, commas included; one the
// memo lacks is rendered into dst and then stored, with the others this page
// rendered, in one new block.
func (s *Server) appendTimeline(dst []byte, kind Timeline, maxID, sinceID int64, limit int) []byte {
	var (
		rowBuf [maxPageStatuses]uint32
		ids    [maxPageStatuses]uint32 // by page position: the render's id plus one, 0 if it is rendered here
		missed [maxPageStatuses]struct {
			row        uint32
			start, end int // the render, in dst
		}
	)
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, m := &s.store, &s.store.memo

	m.mu.Lock()
	ms := st.openMemo()
	rows := s.pageRows(rowBuf[:0], kind, maxID, sinceID, limit, true)
	for i, ri := range rows {
		ids[i] = st.rows[ri].memoID()
	}
	m.mu.Unlock()

	// The renders the slots named are published, so they are read without
	// the lock; the misses render outside it, so that misses on one server
	// render in parallel.
	blocks, locs := ms.blocks.all(), ms.locs.all()
	n := 0
	dst = append(dst, '[')
	for i := 0; i < len(rows); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if ids[i] == 0 {
			start := len(dst)
			dst = s.appendStatusRow(dst, &st.rows[rows[i]])
			missed[n].row, missed[n].start, missed[n].end = rows[i], start, len(dst)
			n++
			continue
		}
		first := ids[i] - 1
		for i+1 < len(rows) && ids[i+1] == ids[i]+1 && locs[ids[i]-1]&1 == 0 {
			i++
		}
		b := blocks[locs[first]>>32]
		dst = append(dst, b[uint32(locs[first])>>1:renderEnd(locs, ids[i]-1, b)]...)
	}
	dst = append(dst, "]\n"...)
	if n == 0 {
		return dst
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// A render another page stored meanwhile is not stored twice. The store
	// may have filled meanwhile; the renders go to the one that takes them now.
	ms = st.openMemo()
	keep, size := missed[:0], 0
	for _, r := range missed[:n] {
		if !st.rows[r.row].memoised() {
			keep, size = append(keep, r), size+r.end-r.start
		}
	}
	if len(keep) == 0 {
		return dst
	}
	block, bi := make([]byte, 0, size+len(keep)-1), uint64(ms.blocks.n)
	for j, r := range keep {
		if j > 0 {
			block = append(block, ',')
		}
		loc := bi<<32 | uint64(len(block))<<1
		if j == len(keep)-1 {
			loc |= 1
		}
		id := ms.locs.push(loc)
		block = append(block, dst[r.start:r.end]...)
		if id < memoCapacity {
			st.rows[r.row].setMemoID(uint32(id + 1))
		}
	}
	ms.blocks.push(block)
	return dst
}
