package wire

import "unicode/utf8"

// The materialising decoders the crawler used before the scanners in
// scan.go, moved here unchanged: FuzzScanStatuses and FuzzScanInstanceInfo
// hold the scanners to them value for value and error for error, and
// FuzzStatusesCodec and FuzzInstanceInfoCodec hold them to encoding/json.
// With them, refScanString: the byte-at-a-time string scan FuzzScanString
// holds the word-at-a-time scanString to.

// refScanString is scanString as it was: one byte per step through the
// switch.
func (d *decoder) refScanString() (raw []byte, simple bool, err error) {
	i := d.off + 1
	simple = true
	for i < len(d.data) {
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

// DecodeInstanceInfo decodes data into v with encoding/json's semantics.
// On error v may be partially filled.
func DecodeInstanceInfo(data []byte, v *InstanceInfo) error {
	d := &decoder{data: data}
	if err := d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "uri"):
			return d.stringValue(&v.URI)
		case fieldIs(key, "title"):
			return d.stringValue(&v.Title)
		case fieldIs(key, "version"):
			return d.stringValue(&v.Version)
		case fieldIs(key, "registrations"):
			return d.boolValue(&v.Registrations)
		case fieldIs(key, "stats"):
			return true, d.object(func(key []byte) (bool, error) {
				switch {
				case fieldIs(key, "user_count"):
					return d.intValueInt(&v.Stats.UserCount)
				case fieldIs(key, "status_count"):
					return d.intValue(&v.Stats.StatusCount, 64)
				case fieldIs(key, "domain_count"):
					return d.intValueInt(&v.Stats.DomainCount)
				case fieldIs(key, "remote_follows"):
					return d.intValueInt(&v.Stats.RemoteFollows)
				}
				return false, nil
			})
		}
		return false, nil
	}); err != nil {
		return err
	}
	return d.end()
}

// decodeStatusInto decodes one status object (or null) into s.
func (d *decoder) decodeStatusInto(s *Status) error {
	return d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "id"):
			return d.stringValue(&s.ID)
		case fieldIs(key, "created_at"):
			return d.stringValue(&s.CreatedAt)
		case fieldIs(key, "content"):
			return d.stringValue(&s.Content)
		case fieldIs(key, "account"):
			return true, d.object(func(key []byte) (bool, error) {
				switch {
				case fieldIs(key, "username"):
					return d.stringValue(&s.Account.Username)
				case fieldIs(key, "acct"):
					return d.stringValue(&s.Account.Acct)
				}
				return false, nil
			})
		case fieldIs(key, "reblog"):
			c, err := d.peek()
			if err != nil {
				return false, err
			}
			if c == 'n' {
				if err := d.lit("null"); err != nil {
					return false, err
				}
				s.Reblog = nil
				return true, nil
			}
			if s.Reblog == nil {
				s.Reblog = &StatusReblog{}
			}
			return true, d.object(func(key []byte) (bool, error) {
				if fieldIs(key, "uri") {
					return d.stringValue(&s.Reblog.URI)
				}
				return false, nil
			})
		case fieldIs(key, "tags"):
			// Stdlib slice semantics: null → nil, [] → empty non-nil, and a
			// reused backing array (duplicate "tags" keys) is decoded into in
			// place, then truncated.
			tags, n := s.Tags, 0
			handled, err := d.arrayValue(
				func() { tags, n = nil, -1 },
				func() error {
					if n >= len(tags) {
						tags = append(tags, StatusTag{})
					}
					n++
					tag := &tags[n-1]
					return d.object(func(key []byte) (bool, error) {
						if fieldIs(key, "name") {
							return d.stringValue(&tag.Name)
						}
						return false, nil
					})
				})
			if err != nil || !handled {
				return handled, err
			}
			if n >= 0 {
				tags = tags[:n]
				if n == 0 {
					tags = []StatusTag{}
				}
			}
			s.Tags = tags
			return true, nil
		}
		return false, nil
	})
}

// DecodeStatuses decodes a status page, appending into dst[:0]-style reuse
// buffers: pass nil for a fresh decode. null yields nil, [] a non-nil
// empty slice.
func DecodeStatuses(data []byte, dst []Status) ([]Status, error) {
	d := &decoder{data: data}
	out := dst[:0]
	isNull := false
	if out == nil {
		out = []Status{}
	}
	if _, err := d.arrayValue(
		func() { isNull = true },
		func() error {
			out = append(out, Status{})
			return d.decodeStatusInto(&out[len(out)-1])
		}); err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	if isNull {
		return nil, nil
	}
	return out, nil
}
