// Package wire implements the hot-path codecs for the five shapes that
// cross the simulated fediverse's wire: the /api/v1/instance document, the
// peers list, the public-timeline status page, the HTML follower page, and
// the federation Activity envelope.
//
// The encoders are append-style (no intermediate buffers, no reflection)
// and produce output byte-identical to what encoding/json — respectively
// the instance server's fmt-based HTML renderer — produced before this
// package existed. The decoders are single-pass streaming parsers that
// agree with encoding/json struct-for-struct, including its lenient corners
// (case-insensitive key folding, null handling per field kind, duplicate
// keys, \u escapes with surrogate repair, invalid-UTF-8 replacement). The
// differential fuzz targets in fuzz_test.go pin both directions against the
// standard library.
//
// The package sits below federation, instance and crawler: it may import
// only the standard library.
package wire

import (
	"errors"
	"math/bits"
	"strconv"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendJSONString appends the JSON encoding of s, byte-identical to
// encoding/json's default (HTML-escaping) string encoder: ", \ and control
// characters are escaped, <, > and & become </>/&, invalid
// UTF-8 becomes �, and U+2028/U+2029 are escaped for JSONP safety.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONStringBytes is AppendJSONString for a byte slice, producing
// identical output without the string conversion — the streamed timeline
// encoder feeds slab-arena spans straight through it. The two functions
// are held equal by FuzzJSONString.
func AppendJSONStringBytes(dst []byte, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendHTMLEscaped appends s with html.EscapeString's five escapes
// (&amp; &#39; &lt; &gt; &#34;) applied in one pass, stepping over plain
// bytes eight at a time (skipHTMLPlain).
func AppendHTMLEscaped(dst []byte, s string) []byte {
	start := 0
	for i := skipHTMLPlain(s, 0); i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
		i = skipHTMLPlain(s, start) - 1
	}
	return append(dst, s[start:]...)
}

// skipHTMLPlain returns the offset of the first byte from i on that
// AppendHTMLEscaped escapes — or where fewer than eight bytes are left, if
// none of the whole words before that holds one. It is skipPlain's word
// test (decode.go) for bytes equal to 0x22 ("), to 0x27 (') once bit 0 is
// set (& is 0x26) and to 0x3e (>) once bit 1 is set (< is 0x3c). Setting a
// bit touches one byte, so every flag under the first escaped byte stays
// exact.
func skipHTMLPlain(s string, i int) int {
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		q, a, g := w^('"'*ones), (w|ones)^('\''*ones), (w|2*ones)^('>'*ones)
		if m := ((q-ones)&^q | (a-ones)&^a | (g-ones)&^g) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	return i
}

// appendTimeJSON appends the quoted RFC 3339 form of t exactly as
// time.Time.MarshalJSON does, including its strict range checks (4-digit
// year, offset hour below 24).
func appendTimeJSON(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	switch {
	case dst[n0+4] != '-': // year must be exactly 4 digits wide
		return dst, errors.New("wire: Time.MarshalJSON: year outside of range [0,9999]")
	case dst[len(dst)-1] != 'Z':
		c := dst[len(dst)-6] // the byte before "07:00"
		if ('0' <= c && c <= '9') || 10*(dst[len(dst)-5]-'0')+(dst[len(dst)-4]-'0') >= 24 {
			return dst, errors.New("wire: Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// appendInt / appendBool are trivial wrappers kept for call-site symmetry.
func appendInt(dst []byte, n int64) []byte { return strconv.AppendInt(dst, n, 10) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}
