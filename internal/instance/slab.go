package instance

import (
	"encoding/binary"
	"hash/maphash"
	"strconv"
	"strings"
	"time"

	"repro/internal/federation"
)

// Slab-backed toot storage. A paper-scale campaign materialises tens of
// millions of toots across ~10K servers; holding each as a heap-allocated
// Toot (five string headers, a slice header, a time.Time) is what capped
// the earlier campaigns. A Server instead keeps one flat text arena, one
// fixed-width row table, and an actor intern table; the local and federated
// timelines are just row-index slices. Toot values are materialised only at
// the API surface (PostToot's return, the tests' read-backs), so the resting
// cost per toot is one 40-byte tootRow plus its text bytes. Text is stored
// only when it cannot be derived: a local toot's note id is "<domain>/<ID>",
// a remote toot's is almost always "<author domain>/<n>", kept as n, and a
// loaded toot's content is "toot <k> from <author>", kept as k.

// span references a byte range in the store's arena.
type span struct {
	off, n uint32
}

const (
	tootRemote    = 1 << iota // arrived via federation
	tootSynthNote             // NoteID is "<domain>/<ID>", derived, not stored
	tootNoteNum               // NoteID is "<author domain>/<note>"; otherwise note is a span
	tootBoost                 // text starts with the uvarint-prefixed boosted note id
	tootTags                  // text then holds the packed tags
	tootLocal                 // on the local timeline
	tootSynthText             // content is loadedText(k), k in text.off; tags, if any, are loadTags
)

// tootRow is the fixed-width resting form of one Toot. The author is an
// index into the actor intern table. text spans, in the arena, the boosted
// note id and the tags when the flags say so, then the content, unless the
// text is derived (tootSynthText); note is what the flags say it is (see
// noteID). memo sits in what would be padding and names the row's render
// in the store's render memo (memo.go).
type tootRow struct {
	id       int64
	unixNano int64
	author   uint32
	flags    uint8
	memo     [3]byte
	text     span
	note     uint64
}

// tootStore owns the arena, the rows, the two timeline index slices and
// the render memo. All methods must be called with the owning Server's
// mutex held. A holder of its read lock may still write the memo and the
// rows' memo slots, under the memo's own lock.
type tootStore struct {
	arena     []byte
	rows      []tootRow
	actors    []federation.Actor
	actorIdx  []uint32 // open-addressed over actors: index+1, 0 empty; see intern
	local     []uint32 // home-authored rows, ascending id
	federated []uint32 // home + remote rows, ascending id
	dead      int      // rows referenced by neither timeline
	memo      renderMemo
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

// since returns the span of everything appended to the arena from off on.
func (st *tootStore) since(off int) span {
	return span{off: uint32(off), n: uint32(len(st.arena) - off)}
}

// pack and unpackSpan convert a span to and from a row's note field.
func (s span) pack() uint64              { return uint64(s.off)<<32 | uint64(s.n) }
func unpackSpan(v uint64) span           { return span{off: uint32(v >> 32), n: uint32(v)} }
func (st *tootStore) span(s span) []byte { return st.arena[s.off : s.off+s.n] }

// openText starts a row's text in the arena with the boosted note id
// (uvarint-length-prefixed) and the packed tags (appendTags), each only if
// there is one; the caller appends the content. It returns the flags that
// say which are there and the offset the text starts at.
func (st *tootStore) openText(boostOf string, tags []string) (flags uint8, off int) {
	off = len(st.arena)
	if boostOf != "" {
		flags |= tootBoost
		st.arena = binary.AppendUvarint(st.arena, uint64(len(boostOf)))
		st.arena = append(st.arena, boostOf...)
	}
	if len(tags) > 0 {
		flags |= tootTags
		st.arena = appendTags(st.arena, tags)
	}
	return flags, off
}

// appendTags appends the packed form of tags: a uvarint count, then each
// tag uvarint-length-prefixed.
func appendTags(dst []byte, tags []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tags)))
	for _, t := range tags {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// loadTags is the packed tag list of every fifth toot LoadWorld loads.
var loadTags = appendTags(nil, []string{"fediverse"})

// loadedText appends the content LoadWorld gives an author's k-th toot.
func loadedText(dst []byte, k uint32, author string) []byte {
	dst = append(dst, "toot "...)
	dst = strconv.AppendUint(dst, uint64(k), 10)
	dst = append(dst, " from "...)
	return append(dst, author...)
}

// prefixed splits a uvarint-length-prefixed string off the front of b.
func prefixed(b []byte) (s, rest []byte) {
	n, k := binary.Uvarint(b)
	return b[k : k+int(n)], b[k+int(n):]
}

// parts splits a row's text into the boosted note id, the packed tags and
// the content. The first two are nil when the row has none. A derived
// content is appended to scratch, which a caller can keep on its stack.
func (st *tootStore) parts(r *tootRow, scratch []byte) (boostOf, tags, content []byte) {
	if r.flags&tootSynthText != 0 {
		if r.flags&tootTags != 0 {
			tags = loadTags
		}
		return nil, tags, loadedText(scratch, r.text.off, st.actors[r.author].User)
	}
	b := st.span(r.text)
	if r.flags&tootBoost != 0 {
		boostOf, b = prefixed(b)
	}
	if r.flags&tootTags != 0 {
		count, k := binary.Uvarint(b)
		rest := b[k:]
		for ; count > 0; count-- {
			_, rest = prefixed(rest)
		}
		tags, b = b[:len(b)-len(rest)], rest
	}
	return boostOf, tags, b
}

// unpackTags materialises a packed tag list.
func unpackTags(packed []byte) []string {
	count, k := binary.Uvarint(packed)
	b := packed[k:]
	tags := make([]string, count)
	for i := range tags {
		var tag []byte
		tag, b = prefixed(b)
		tags[i] = string(tag)
	}
	return tags
}

// noteNumber returns n when noteID is "<domain>/<n>" with n as
// strconv.FormatUint prints it and below 2^63, so that the id can be
// rebuilt from the author's domain and n.
func noteNumber(noteID, domain string) (uint64, bool) {
	rest, ok := strings.CutPrefix(noteID, domain)
	if !ok || len(rest) < 2 || rest[0] != '/' || (rest[1] == '0' && len(rest) > 2) {
		return 0, false
	}
	n, err := strconv.ParseUint(rest[1:], 10, 63)
	return n, err == nil
}

// noteID returns a row's note id: the server's domain and the row id
// (tootSynthNote), the author's domain and note (tootNoteNum), or the text
// note spans.
func (st *tootStore) noteID(r *tootRow, domain string) string {
	switch {
	case r.flags&tootSynthNote != 0:
		return domain + "/" + strconv.FormatInt(r.id, 10)
	case r.flags&tootNoteNum != 0:
		return st.actors[r.author].Domain + "/" + strconv.FormatUint(r.note, 10)
	}
	return string(st.span(unpackSpan(r.note)))
}

// add appends the resting row for a toot and returns its row index. A local
// toot with an empty noteID gets the derived local id (tootSynthNote).
func (st *tootStore) add(id int64, at time.Time, author federation.Actor, content, noteID, boostOf string, tags []string, remote bool) uint32 {
	ai := st.intern(author)
	var flags uint8
	if remote {
		flags = tootRemote
	}
	var note uint64
	if n, ok := noteNumber(noteID, author.Domain); ok {
		flags, note = flags|tootNoteNum, n
	} else if noteID == "" && !remote {
		flags |= tootSynthNote
	} else {
		off := len(st.arena)
		st.arena = append(st.arena, noteID...)
		note = st.since(off).pack()
	}
	textFlags, off := st.openText(boostOf, tags)
	st.arena = append(st.arena, content...)
	return st.addRow(id, at.UnixNano(), ai, flags|textFlags, st.since(off), note)
}

// addRow is add for a caller that has already interned the author and put
// the row's text in the arena: the one place a tootRow is written.
func (st *tootStore) addRow(id, unixNano int64, author uint32, flags uint8, text span, note uint64) uint32 {
	st.rows = append(st.rows, tootRow{id: id, unixNano: unixNano, author: author, flags: flags, text: text, note: note})
	return uint32(len(st.rows) - 1)
}

// pushLocal appends a row to the local timeline.
func (st *tootStore) pushLocal(ri uint32) {
	st.rows[ri].flags |= tootLocal
	st.local = append(st.local, ri)
}

// get materialises the row as an API-surface Toot value.
func (st *tootStore) get(ri uint32, domain string) Toot {
	r := &st.rows[ri]
	var scratch [64]byte
	boostOf, tags, content := st.parts(r, scratch[:0])
	t := Toot{
		ID:        r.id,
		Author:    st.actors[r.author],
		Content:   string(content),
		CreatedAt: time.Unix(0, r.unixNano).UTC(),
		Remote:    r.flags&tootRemote != 0,
		BoostOf:   string(boostOf),
		NoteID:    st.noteID(r, domain),
	}
	if tags != nil {
		t.Hashtags = unpackTags(tags)
	}
	return t
}

// appendFederated adds a row to the federated timeline, trimming it to max
// entries like Mastodon's timeline trimming. Rows trimmed off the front
// become dead unless the local timeline still holds them; once dead rows
// outnumber live ones the store compacts. The trim reslices: the entries
// are copied only when append outgrows what is left of the backing array,
// so a delivery to a full timeline costs O(1) amortised.
func (st *tootStore) appendFederated(ri uint32, max int) {
	st.federated = append(st.federated, ri)
	over := len(st.federated) - max
	if over <= 0 {
		return
	}
	for _, dropped := range st.federated[:over] {
		if st.rows[dropped].flags&tootLocal == 0 {
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
// The render memo starts over, since it is indexed by row.
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
		r.memo = [3]byte{}
		if r.flags&tootSynthText == 0 {
			r.text = move(r.text)
		}
		if r.flags&(tootSynthNote|tootNoteNum) == 0 {
			r.note = move(unpackSpan(r.note)).pack()
		}
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
	st.memo.cur = nil
}
