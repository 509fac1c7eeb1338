package instance

import (
	"encoding/binary"
	"strconv"
	"time"

	"repro/internal/wire"
)

// The streamed timeline encoder: a status is appended straight from the
// slab store's row and arena through the wire string codecs, without
// materialising a Toot or a wire.Status (two slices, five string
// conversions and a tag slice per toot, all dead the moment the buffer was
// rendered). A page is its statuses' renders, joined (memo.go), and is
// byte-identical to wire.AppendStatuses over the materialised page —
// pinned by TestTimelineStreamByteIdentity against refTimelineBody — so
// the memo and the crawler's decoder agree on the bytes.

// statusTimeLayout is the created_at format of the wire Status shape.
const statusTimeLayout = "2006-01-02T15:04:05.000Z"

// pageRows appends to dst the rows of one timeline page as the paged API
// selects them: newest first from the first id below maxID (0: from the
// newest), stopping at an id at or below sinceID or once limit rows are
// taken (limit ≤ 0 means 20), private local authors skipped. With
// memoised, a row the render memo holds is taken without the privacy
// check, since only public rows are rendered; the caller then holds the
// memo's lock too. Must be called with s.mu held.
func (s *Server) pageRows(dst []uint32, kind Timeline, maxID, sinceID int64, limit int, memoised bool) []uint32 {
	if limit <= 0 {
		limit = 20
	}
	src := s.store.local
	if kind == TimelineFederated {
		src = s.store.federated
	}
	hi := len(src)
	if maxID > 0 {
		hi = sortSearchRows(src, s.store.rows, maxID)
	}
	for i, n := hi-1, 0; i >= 0 && n < limit; i-- {
		row := &s.store.rows[src[i]]
		if row.id <= sinceID {
			break // ascending ids: everything below is older still
		}
		if row.flags&tootRemote == 0 && !(memoised && row.memoised()) {
			if acct := s.accounts[s.store.actors[row.author].User]; acct != nil && acct.Private {
				continue
			}
		}
		dst = append(dst, src[i])
		n++
	}
	return dst
}

// sortSearchRows finds the first index in src whose row id is ≥ maxID
// (src is ascending by id) — an open-coded sort.Search, kept free of the
// closure allocation on the serving hot path.
func sortSearchRows(src []uint32, rows []tootRow, maxID int64) int {
	lo, hi := 0, len(src)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[src[mid]].id < maxID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendStatusRow renders one slab row as a wire Status object, matching
// wire.AppendStatus byte for byte. Must be called with s.mu held.
func (s *Server) appendStatusRow(dst []byte, row *tootRow) []byte {
	dst = append(dst, `{"id":"`...)
	dst = strconv.AppendInt(dst, row.id, 10) // decimal digits never need escaping
	dst = append(dst, `","created_at":"`...)
	dst = time.Unix(0, row.unixNano).UTC().AppendFormat(dst, statusTimeLayout)
	boostOf, tags, content := s.store.parts(row)
	dst = append(dst, `","content":`...)
	dst = wire.AppendJSONStringBytes(dst, content)
	actor := &s.store.actors[row.author]
	dst = append(dst, `,"account":{"username":`...)
	dst = wire.AppendJSONString(dst, actor.User)
	dst = append(dst, `,"acct":`...)
	// acct is User+"@"+Domain; '@' needs no JSON escape, so the two halves
	// are escaped in place through a small stack scratch.
	var acctBuf [96]byte
	acct := append(acctBuf[:0], actor.User...)
	acct = append(acct, '@')
	acct = append(acct, actor.Domain...)
	dst = wire.AppendJSONStringBytes(dst, acct)
	dst = append(dst, '}')
	if boostOf != nil {
		dst = append(dst, `,"reblog":{"uri":`...)
		dst = wire.AppendJSONStringBytes(dst, boostOf)
		dst = append(dst, '}')
	}
	if tags != nil {
		dst = append(dst, `,"tags":[`...)
		count, k := binary.Uvarint(tags)
		b := tags[k:]
		for t := uint64(0); t < count; t++ {
			var tag []byte
			tag, b = prefixed(b)
			if t > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = wire.AppendJSONStringBytes(dst, tag)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}
