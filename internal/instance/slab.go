package instance

import (
	"encoding/binary"
	"hash/maphash"
	"strconv"
	"time"

	"repro/internal/federation"
)

// Slab-backed toot storage. A paper-scale campaign materialises tens of
// millions of toots across ~10K servers; holding each as a heap-allocated
// Toot (five string headers, a slice header, a time.Time) is what capped
// the earlier campaigns. A Server instead keeps one flat text arena, one
// fixed-width row table, and an actor intern table; the local and federated
// timelines are just row-index slices. Toot values are materialised only at
// the API surface (PostToot's return, PublicTimeline pages), so the resting
// cost per toot is one tootRow plus its text bytes.

// span references a byte range in the store's arena.
type span struct {
	off, n uint32
}

const (
	tootRemote    = 1 << 0 // arrived via federation
	tootSynthNote = 1 << 1 // NoteID is "<domain>/<ID>", derived, not stored
)

// tootRow is the fixed-width resting form of one Toot. Text fields live in
// the arena; the author is an index into the actor intern table.
type tootRow struct {
	id       int64
	unixNano int64
	author   uint32
	flags    uint8
	content  span
	noteID   span
	boostOf  span
	tags     span // uvarint tag count, then uvarint-length-prefixed tags
}

// tootStore owns the arena, the rows and the two timeline index slices.
// All methods must be called with the owning Server's mutex held.
type tootStore struct {
	arena     []byte
	rows      []tootRow
	actors    []federation.Actor
	actorIdx  []uint32 // open-addressed over actors: index+1, 0 empty; see intern
	local     []uint32 // home-authored rows, ascending id
	federated []uint32 // home + remote rows, ascending id
	dead      int      // rows referenced by neither timeline
}

// intern returns the stable index of an actor, registering it on first use.
// The index is a linear-probing table of positions in st.actors, so an actor
// is stored once, not again as a map key; the table is a power of two in
// length and kept at most three quarters full.
func (st *tootStore) intern(a federation.Actor) uint32 {
	if 4*(len(st.actors)+1) > 3*len(st.actorIdx) {
		st.sizeIndex(2 * (len(st.actors) + 1))
	}
	mask := uint64(len(st.actorIdx) - 1)
	for i := actorHash(a) & mask; ; i = (i + 1) & mask {
		v := st.actorIdx[i]
		if v == 0 {
			st.actors = append(st.actors, a)
			st.actorIdx[i] = uint32(len(st.actors))
			return uint32(len(st.actors) - 1)
		}
		if st.actors[v-1] == a {
			return v - 1
		}
	}
}

// sizeIndex rebuilds the actor index with room for n actors.
func (st *tootStore) sizeIndex(n int) {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	st.actorIdx = make([]uint32, size)
	mask := uint64(size - 1)
	for k, a := range st.actors {
		i := actorHash(a) & mask
		for st.actorIdx[i] != 0 {
			i = (i + 1) & mask
		}
		st.actorIdx[i] = uint32(k + 1)
	}
}

var actorUserSeed, actorDomainSeed = maphash.MakeSeed(), maphash.MakeSeed()

// actorHash hashes the two fields under separate seeds, so that actors
// sharing a user or a domain, or with the two swapped, still spread.
func actorHash(a federation.Actor) uint64 {
	return maphash.String(actorUserSeed, a.User) ^ maphash.String(actorDomainSeed, a.Domain)
}

func (st *tootStore) text(s string) span {
	if s == "" {
		return span{}
	}
	off := uint32(len(st.arena))
	st.arena = append(st.arena, s...)
	return span{off: off, n: uint32(len(s))}
}

// since returns the span of everything appended to the arena from off on.
func (st *tootStore) since(off int) span {
	return span{off: uint32(off), n: uint32(len(st.arena) - off)}
}

func (st *tootStore) packTags(tags []string) span {
	if len(tags) == 0 {
		return span{}
	}
	off := uint32(len(st.arena))
	st.arena = binary.AppendUvarint(st.arena, uint64(len(tags)))
	for _, t := range tags {
		st.arena = binary.AppendUvarint(st.arena, uint64(len(t)))
		st.arena = append(st.arena, t...)
	}
	return span{off: off, n: uint32(len(st.arena)) - off}
}

func (st *tootStore) span(s span) []byte {
	return st.arena[s.off : s.off+s.n]
}

func (st *tootStore) unpackTags(s span) []string {
	b := st.span(s)
	count, k := binary.Uvarint(b)
	b = b[k:]
	tags := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		n, k := binary.Uvarint(b)
		b = b[k:]
		tags = append(tags, string(b[:n]))
		b = b[n:]
	}
	return tags
}

// add appends the resting row for a toot and returns its row index. A toot
// with an empty noteID gets the derived local id (tootSynthNote).
func (st *tootStore) add(id int64, at time.Time, author federation.Actor, content, noteID, boostOf string, tags []string, remote bool) uint32 {
	return st.addRow(id, at.UnixNano(), st.intern(author),
		st.text(content), st.text(noteID), st.text(boostOf), st.packTags(tags), remote)
}

// addRow is add for a caller that has already interned the author and put
// the text in the arena (content, note id, boost id, tags, in that order):
// the one place a tootRow is written.
func (st *tootStore) addRow(id, unixNano int64, author uint32, content, noteID, boostOf, tags span, remote bool) uint32 {
	var flags uint8
	if remote {
		flags |= tootRemote
	}
	if noteID.n == 0 {
		flags |= tootSynthNote
	}
	st.rows = append(st.rows, tootRow{
		id:       id,
		unixNano: unixNano,
		author:   author,
		flags:    flags,
		content:  content,
		noteID:   noteID,
		boostOf:  boostOf,
		tags:     tags,
	})
	return uint32(len(st.rows) - 1)
}

// get materialises the row as an API-surface Toot value.
func (st *tootStore) get(ri uint32, domain string) Toot {
	r := &st.rows[ri]
	t := Toot{
		ID:        r.id,
		Author:    st.actors[r.author],
		Content:   string(st.span(r.content)),
		CreatedAt: time.Unix(0, r.unixNano).UTC(),
		Remote:    r.flags&tootRemote != 0,
		BoostOf:   string(st.span(r.boostOf)),
	}
	if r.flags&tootSynthNote != 0 {
		t.NoteID = domain + "/" + strconv.FormatInt(r.id, 10)
	} else {
		t.NoteID = string(st.span(r.noteID))
	}
	if r.tags.n > 0 {
		t.Hashtags = st.unpackTags(r.tags)
	}
	return t
}

// appendFederated adds a row to the federated timeline, trimming it to max
// entries like Mastodon's timeline trimming. Remote rows trimmed off the
// front become dead (local rows stay referenced by the local timeline);
// once dead rows outnumber live ones the store compacts. The trim reslices:
// the entries are copied only when append outgrows what is left of the
// backing array, so a delivery to a full timeline costs O(1) amortised.
func (st *tootStore) appendFederated(ri uint32, max int) {
	st.federated = append(st.federated, ri)
	over := len(st.federated) - max
	if over <= 0 {
		return
	}
	for _, dropped := range st.federated[:over] {
		if st.rows[dropped].flags&tootRemote != 0 {
			st.dead++
		}
	}
	st.federated = st.federated[over:]
	if st.dead > len(st.rows)-st.dead {
		st.compact()
	}
}

// compact rewrites the rows and arena keeping only rows still referenced by
// a timeline, remapping both index slices. Runs in one pass over the rows.
func (st *tootStore) compact() {
	keep := make([]bool, len(st.rows))
	for _, ri := range st.local {
		keep[ri] = true
	}
	for _, ri := range st.federated {
		keep[ri] = true
	}
	remap := make([]uint32, len(st.rows))
	newRows := make([]tootRow, 0, len(st.rows)-st.dead)
	newArena := make([]byte, 0, len(st.arena)/2)
	move := func(s span) span {
		if s.n == 0 {
			return span{}
		}
		off := uint32(len(newArena))
		newArena = append(newArena, st.arena[s.off:s.off+s.n]...)
		return span{off: off, n: s.n}
	}
	for ri, k := range keep {
		if !k {
			continue
		}
		r := st.rows[ri]
		r.content = move(r.content)
		r.noteID = move(r.noteID)
		r.boostOf = move(r.boostOf)
		r.tags = move(r.tags)
		remap[ri] = uint32(len(newRows))
		newRows = append(newRows, r)
	}
	for i, ri := range st.local {
		st.local[i] = remap[ri]
	}
	for i, ri := range st.federated {
		st.federated[i] = remap[ri]
	}
	st.rows, st.arena, st.dead = newRows, newArena, 0
}
