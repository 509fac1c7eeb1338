package wire

import (
	"bytes"
	"fmt"
	"strconv"
)

// The HTML follower page (§3 footnote 1): the server-side renderer and the
// scraper-side scanner. AppendFollowerPage is byte-identical to the
// fmt.Fprintf renderer it replaced; ScanFollowerPage and
// FollowerPageHasNext reproduce, byte for byte and match for match, the
// two regexes the scraper used:
//
//	<a class="follower" href="https?://([^/"]+)/users/([^/"]+)"
//	<a rel="next" href="[^"]*page=(\d+)"

// AppendFollowerPage appends one rendered follower page: the followers
// (already sliced to the page), a rel=next anchor when hasNext, all
// user-controlled strings HTML-escaped.
func AppendFollowerPage(dst []byte, name string, followers []Actor, page int, hasNext bool) []byte {
	dst = append(dst, "<html><body><h1>Followers of "...)
	dst = AppendHTMLEscaped(dst, name)
	dst = append(dst, "</h1><ul>\n"...)
	for i := range followers {
		a := &followers[i]
		// The user and the domain are escaped once each and their escaped
		// bytes copied for the second occurrence.
		dst = append(dst, `<li><a class="follower" href="https://`...)
		d0 := len(dst)
		dst = AppendHTMLEscaped(dst, a.Domain)
		d1 := len(dst)
		dst = append(dst, "/users/"...)
		u0 := len(dst)
		dst = AppendHTMLEscaped(dst, a.User)
		u1 := len(dst)
		dst = append(dst, `">`...)
		dst = append(dst, dst[u0:u1]...)
		dst = append(dst, '@')
		dst = append(dst, dst[d0:d1]...)
		dst = append(dst, "</a></li>\n"...)
	}
	dst = append(dst, "</ul>\n"...)
	if hasNext {
		dst = append(dst, `<a rel="next" href="/users/`...)
		dst = AppendHTMLEscaped(dst, name)
		dst = append(dst, "/followers?page="...)
		dst = strconv.AppendInt(dst, int64(page+1), 10)
		dst = append(dst, "\">next</a>\n"...)
	}
	return append(dst, "</body></html>"...)
}

const followerAnchor = `<a class="follower" href="http`

// indexAfter finds pat in body at or after from, via the vectorized
// stdlib search.
func indexAfter(body []byte, pat string, from int) int {
	if from > len(body) {
		return -1
	}
	i := bytes.Index(body[from:], []byte(pat))
	if i < 0 {
		return -1
	}
	return from + i
}

// ScanFollowerPage finds every follower link on the page and calls visit
// with the raw domain and user bytes of each, in document order — exactly
// the submatches the follower regex produced.
func ScanFollowerPage(body []byte, visit func(domain, user []byte)) {
	pos := 0
	for {
		p := indexAfter(body, followerAnchor, pos)
		if p < 0 {
			return
		}
		i := p + len(followerAnchor) // just past "http"
		// Optional "s", then "://".
		if i < len(body) && body[i] == 's' {
			i++
		}
		if !bytes.HasPrefix(body[i:], []byte("://")) {
			pos = p + 1
			continue
		}
		i += len("://")
		domStart := i
		for i < len(body) && body[i] != '/' && body[i] != '"' {
			i++
		}
		if i == domStart || i >= len(body) || body[i] != '/' {
			pos = p + 1
			continue
		}
		domEnd := i
		if !bytes.HasPrefix(body[i:], []byte("/users/")) {
			pos = p + 1
			continue
		}
		i += len("/users/")
		userStart := i
		for i < len(body) && body[i] != '/' && body[i] != '"' {
			i++
		}
		if i == userStart || i >= len(body) || body[i] != '"' {
			pos = p + 1
			continue
		}
		visit(body[domStart:domEnd], body[userStart:i])
		pos = i + 1 // resume after the match, like FindAllSubmatch
	}
}

const nextAnchor = `<a rel="next" href="`

// FollowerPageHasNext reports whether the page links a next page — the
// rel=next regex as a boolean scan. The regex needs, after the anchor, a
// quote-free run ending in page=<digits> immediately before the next '"':
// since the pre-page= run cannot cross a quote, the terminating quote is
// the first one after the anchor.
func FollowerPageHasNext(body []byte) bool {
	pos := 0
	for {
		p := indexAfter(body, nextAnchor, pos)
		if p < 0 {
			return false
		}
		i := p + len(nextAnchor)
		q := i
		for q < len(body) && body[q] != '"' {
			q++
		}
		if q < len(body) {
			// Digits backwards from the quote, then the literal "page=".
			e := q
			for e > i && '0' <= body[e-1] && body[e-1] <= '9' {
				e--
			}
			if e < q && e-i >= len("page=") && string(body[e-len("page="):e]) == "page=" {
				return true
			}
		}
		pos = p + 1
	}
}

// FollowerPageComplete checks the structural integrity of a follower page.
// The renderer (AppendFollowerPage) always closes the document with
// "</body></html>", so a page missing that trailer was truncated in
// flight. The scanner itself cannot notice — mangled HTML legitimately
// yields zero followers — so this trailer check is the only way a crawler
// can tell "instance with no followers" from "payload cut short", and the
// hardened client runs it as the fetch-level integrity check.
func FollowerPageComplete(body []byte) error {
	end := len(body)
	for end > 0 {
		switch body[end-1] {
		case ' ', '\t', '\r', '\n':
			end--
			continue
		}
		break
	}
	const trailer = "</body></html>"
	if end < len(trailer) || string(body[end-len(trailer):end]) != trailer {
		return fmt.Errorf("wire: follower page truncated at offset %d: missing %q trailer", end, trailer)
	}
	return nil
}
