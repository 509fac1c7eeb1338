package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The streaming decoder: a single-pass JSON parser that agrees with
// encoding/json on success/failure and, on success, on the decoded value.
// Where encoding/json is lenient, so is this decoder:
//
//   - keys match struct fields exactly first, then case-insensitively
//     under Unicode simple folding (strings.EqualFold), first field wins;
//   - unknown fields are skipped with full syntax validation;
//   - duplicate keys decode last-wins (merging, not replacing, nested
//     structs — exactly the stdlib's in-place decode);
//   - null is a no-op for strings, numbers, bools and structs, and sets
//     pointers and slices to nil;
//   - string escapes handle \uXXXX with surrogate-pair repair, and raw
//     invalid UTF-8 is replaced with U+FFFD;
//   - container nesting is capped at the stdlib's 10000.
//
// Unlike encoding/json the decoder streams: it stops at the first error
// instead of pre-validating the whole document, so a failed decode may
// leave the destination partially filled. All callers discard the
// destination on error, and the differential fuzz targets compare decoded
// values only when both decoders succeed (and demand errors agree).

const maxNestingDepth = 10000

type decoder struct {
	data  []byte
	off   int
	depth int
	// keyBuf is scratch for unescaping object keys (the rare
	// escaped-key path); keys never allocate.
	keyBuf []byte
	// scratch holds the unescaped form of the string values a scanner
	// hands out as views (viewValue).
	scratch []byte
}

func (d *decoder) syntaxErr(what string) error {
	return d.syntaxErrAt(what, d.off)
}

// syntaxErrAt reports a syntax error at an explicit offset — used where the
// scan position that discovered the problem (say, the end of a truncated
// input) is ahead of the token start the decoder's offset still points at.
func (d *decoder) syntaxErrAt(what string, off int) error {
	return fmt.Errorf("wire: invalid JSON: %s at offset %d", what, off)
}

func (d *decoder) typeErr(what string) error {
	return fmt.Errorf("wire: cannot decode %s at offset %d", what, d.off)
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the first byte of the next token without consuming it.
func (d *decoder) peek() (byte, error) {
	d.skipSpace()
	if d.off >= len(d.data) {
		return 0, d.syntaxErr("unexpected end of input")
	}
	return d.data[d.off], nil
}

// end verifies nothing but whitespace remains.
func (d *decoder) end() error {
	d.skipSpace()
	if d.off != len(d.data) {
		return d.syntaxErr("trailing data after top-level value")
	}
	return nil
}

// lit consumes an exact literal (true/false/null).
func (d *decoder) lit(s string) error {
	if len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return d.syntaxErr("invalid literal")
	}
	d.off += len(s)
	return nil
}

// readNumber validates JSON number grammar and returns the literal.
func (d *decoder) readNumber() ([]byte, error) {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off >= len(d.data):
		return nil, d.syntaxErr("incomplete number")
	case d.data[d.off] == '0':
		d.off++
	case '1' <= d.data[d.off] && d.data[d.off] <= '9':
		d.off++
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
	default:
		return nil, d.syntaxErr("invalid number")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if d.off >= len(d.data) || d.data[d.off] < '0' || d.data[d.off] > '9' {
			return nil, d.syntaxErr("invalid number fraction")
		}
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if d.off >= len(d.data) || d.data[d.off] < '0' || d.data[d.off] > '9' {
			return nil, d.syntaxErr("invalid number exponent")
		}
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
	}
	return d.data[start:d.off], nil
}

// scanString validates a string literal starting at the opening quote and
// returns the raw bytes between the quotes plus whether they need the slow
// unescape path (escapes or non-ASCII bytes). skipPlain steps over the
// bytes the switch would only count, so the switch sees exactly the bytes
// it has something to do for, plus a tail shorter than a word.
func (d *decoder) scanString() (raw []byte, simple bool, err error) {
	// d.data[d.off] == '"', checked by the caller.
	i := d.off + 1
	simple = true
	for {
		if i = skipPlain(d.data, i, simple); i >= len(d.data) {
			break
		}
		c := d.data[i]
		switch {
		case c == '"':
			raw = d.data[d.off+1 : i]
			d.off = i + 1
			return raw, simple, nil
		case c == '\\':
			simple = false
			i++
			if i >= len(d.data) {
				return nil, false, d.syntaxErrAt("unterminated escape", i)
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(d.data) || !isHex(d.data[i]) {
						return nil, false, d.syntaxErrAt("invalid \\u escape", i)
					}
					i++
				}
			default:
				return nil, false, d.syntaxErrAt("invalid escape character", i)
			}
		case c < 0x20:
			return nil, false, d.syntaxErrAt("control character in string literal", i)
		case c >= utf8.RuneSelf:
			simple = false
			i++
		default:
			i++
		}
	}
	return nil, false, d.syntaxErrAt("unterminated string literal", len(d.data))
}

const (
	ones  = 0x0101010101010101 // 0x01 in every byte of a word
	highs = 0x8080808080808080 // each byte's top bit
)

// skipPlain returns the offset of the first byte from i on that is a
// quote, a backslash, a control byte or, while simple, a byte ≥ 0x80 — or
// where fewer than eight bytes are left, if none of the whole words before
// that holds one. It reads eight bytes at a time, lowest address in the
// lowest byte. (w - n*ones) &^ w & highs flags the bytes below n (n ≤ 0x80),
// and on w^(c*ones) with n = 1 the bytes equal to c. The subtraction
// borrows only out of a byte that is below n, so every flag under the first
// such byte is exact: the lowest flag of the union is the first byte the
// byte loop has work for, and no flag means there is none.
func skipPlain(data []byte, i int, simple bool) int {
	var top uint64
	if simple {
		top = highs
	}
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		q, b := w^('"'*ones), w^('\\'*ones)
		if m := ((w-0x20*ones)&^w|(q-ones)&^q|(b-ones)&^b)&highs | w&top; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	return i
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	default:
		return rune(c-'A') + 10
	}
}

// getu4 decodes the four hex digits of a (pre-validated) \uXXXX escape at
// s[0:6]; it returns -1 when s does not start with a full \uXXXX escape —
// the signal the surrogate-pair repair uses, mirroring the stdlib.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		if !isHex(c) {
			return -1
		}
		r = r*16 + hexVal(c)
	}
	return r
}

// unescapeAppend appends the decoded form of the raw (scanner-validated)
// inside of a string literal to dst, exactly as encoding/json's unquote
// does: escape sequences expand, lone surrogates and invalid UTF-8 become
// U+FFFD.
func unescapeAppend(dst, raw []byte) []byte {
	r := 0
	for r < len(raw) {
		c := raw[r]
		switch {
		case c == '\\':
			if raw[r+1] != 'u' {
				switch raw[r+1] {
				case '"', '\\', '/':
					dst = append(dst, raw[r+1])
				case 'b':
					dst = append(dst, '\b')
				case 'f':
					dst = append(dst, '\f')
				case 'n':
					dst = append(dst, '\n')
				case 'r':
					dst = append(dst, '\r')
				case 't':
					dst = append(dst, '\t')
				}
				r += 2
				continue
			}
			rr := getu4(raw[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				rr1 := getu4(raw[r:])
				if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
					r += 6
					dst = utf8.AppendRune(dst, dec)
					continue
				}
				rr = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, rr)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			r += size
			dst = utf8.AppendRune(dst, rr) // utf8.RuneError for invalid bytes
		}
	}
	return dst
}

// readString consumes and decodes a string literal.
func (d *decoder) readString() (string, error) {
	raw, simple, err := d.scanString()
	if err != nil {
		return "", err
	}
	if simple {
		return string(raw), nil
	}
	return string(unescapeAppend(nil, raw)), nil
}

// readKey consumes a string literal and returns its decoded bytes without
// allocating: simple keys alias the input, escaped keys reuse the
// decoder's scratch buffer. The result is only valid until the next
// readKey call.
func (d *decoder) readKey() ([]byte, error) {
	raw, simple, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if simple {
		return raw, nil
	}
	d.keyBuf = unescapeAppend(d.keyBuf[:0], raw)
	return d.keyBuf, nil
}

// skipString consumes a string literal without building its value.
func (d *decoder) skipString() error {
	_, _, err := d.scanString()
	return err
}

// skipValue consumes one syntactically valid value of any type.
func (d *decoder) skipValue() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.skipObject()
	case '[':
		return d.skipArray()
	case '"':
		return d.skipString()
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, err := d.readNumber()
		return err
	default:
		return d.syntaxErr("invalid value")
	}
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxNestingDepth {
		return d.syntaxErr("exceeded max depth")
	}
	return nil
}

func (d *decoder) skipObject() error {
	if err := d.push(); err != nil {
		return err
	}
	d.off++ // '{'
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != '"' {
			return d.syntaxErr("object key must be a string")
		}
		if err := d.skipString(); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxErr("missing colon after object key")
		}
		d.off++
		if err := d.skipValue(); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr("missing comma in object")
		}
	}
}

func (d *decoder) skipArray() error {
	if err := d.push(); err != nil {
		return err
	}
	d.off++ // '['
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := d.skipValue(); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr("missing comma in array")
		}
	}
}

// object drives the key/value loop of a struct-shaped value. field is
// called with each decoded key (valid only for the duration of the call —
// it may alias the input or the decoder's scratch buffer) and must consume
// the value (or return handled=false to have it skipped with validation
// only). A null value in place of the object is a no-op; any other kind is
// a type error.
func (d *decoder) object(field func(key []byte) (handled bool, err error)) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.lit("null")
	}
	if c != '{' {
		return d.typeErr("non-object into struct")
	}
	if err := d.push(); err != nil {
		return err
	}
	d.off++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != '"' {
			return d.syntaxErr("object key must be a string")
		}
		key, err := d.readKey()
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxErr("missing colon after object key")
		}
		d.off++
		handled, err := field(key)
		if err != nil {
			return err
		}
		if !handled {
			if err := d.skipValue(); err != nil {
				return err
			}
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr("missing comma in object")
		}
	}
}

// fieldIs matches a decoded key against a struct field's JSON name with
// encoding/json's rules: exact match, else Unicode simple case folding.
// Every name is ASCII, and whatever folds to an ASCII byte is that byte's
// other case or a longer rune (K, U+212A, is 3 bytes; ſ, U+017F, is 2), so
// a shorter key never matches and one of the same length matches only
// byte for byte up to ASCII case. Only a longer key needs
// strings.EqualFold, which does not allocate (the conversion does not
// escape).
func fieldIs(key []byte, name string) bool {
	switch {
	case len(key) < len(name):
		return false
	case len(key) > len(name):
		return strings.EqualFold(string(key), name)
	}
	for i := 0; i < len(name); i++ {
		if c, n := key[i], name[i]; c != n && (c|0x20 != n|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	return true
}

// stringValue decodes a string-typed field: string stores, null is a
// no-op, anything else is a type error.
func (d *decoder) stringValue(dst *string) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, d.lit("null")
	case '"':
		s, err := d.readString()
		if err != nil {
			return false, err
		}
		*dst = s
		return true, nil
	default:
		return false, d.typeErr("non-string into string field")
	}
}

// intValue decodes an integer field with stdlib semantics: the literal
// must parse as a base-10 integer of the destination's width, bits (so
// floats, exponents and overflow are type errors), null is a no-op.
func (d *decoder) intValue(dst *int64, bits int) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch {
	case c == 'n':
		return true, d.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.readNumber()
		if err != nil {
			return false, err
		}
		n, err := strconv.ParseInt(string(lit), 10, bits)
		if err != nil {
			return false, d.typeErr("number does not fit integer field")
		}
		*dst = n
		return true, nil
	default:
		return false, d.typeErr("non-number into integer field")
	}
}

func (d *decoder) intValueInt(dst *int) (bool, error) {
	n := int64(*dst)
	ok, err := d.intValue(&n, strconv.IntSize)
	if err == nil && ok {
		*dst = int(n)
	}
	return ok, err
}

// boolValue decodes a bool field: true/false store, null is a no-op.
func (d *decoder) boolValue(dst *bool) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, d.lit("null")
	case 't':
		if err := d.lit("true"); err != nil {
			return false, err
		}
		*dst = true
		return true, nil
	case 'f':
		if err := d.lit("false"); err != nil {
			return false, err
		}
		*dst = false
		return true, nil
	default:
		return false, d.typeErr("non-bool into bool field")
	}
}

// stringSliceValue decodes a []string field with the stdlib's exact slice
// semantics: null sets nil, [] yields an empty non-nil slice, and existing
// elements are decoded into in place (so a null element over a reused
// backing array keeps the stale value, exactly like encoding/json when the
// same key appears twice).
func (d *decoder) stringSliceValue(dst *[]string) (bool, error) {
	s := *dst
	n := 0
	handled, err := d.arrayValue(
		func() { s, n = nil, -1 },
		func() error {
			if n >= len(s) {
				s = append(s, "")
			}
			n++
			_, err := d.stringValue(&s[n-1])
			return err
		})
	if err != nil || !handled {
		return handled, err
	}
	if n >= 0 {
		s = s[:n]
		if n == 0 {
			s = []string{}
		}
	}
	*dst = s
	return true, nil
}

// arrayValue drives the element loop of an array-shaped value: elem is
// called once per element and must consume it. null in place of the array
// calls onNull; any non-array kind is a type error.
func (d *decoder) arrayValue(onNull func(), elem func() error) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		if err := d.lit("null"); err != nil {
			return false, err
		}
		onNull()
		return true, nil
	case '[':
		if err := d.push(); err != nil {
			return false, err
		}
		d.off++
		if c, err = d.peek(); err != nil {
			return false, err
		}
		if c == ']' {
			d.off++
			d.depth--
			return true, nil
		}
		for {
			if err := elem(); err != nil {
				return false, err
			}
			if c, err = d.peek(); err != nil {
				return false, err
			}
			switch c {
			case ',':
				d.off++
			case ']':
				d.off++
				d.depth--
				return true, nil
			default:
				return false, d.syntaxErr("missing comma in array")
			}
		}
	default:
		return false, d.typeErr("non-array into slice field")
	}
}

// rawValue consumes one syntactically valid value and returns its raw
// bytes — what the stdlib hands to an UnmarshalJSON method.
func (d *decoder) rawValue() ([]byte, error) {
	if _, err := d.peek(); err != nil {
		return nil, err
	}
	start := d.off
	if err := d.skipValue(); err != nil {
		return nil, err
	}
	return d.data[start:d.off], nil
}
