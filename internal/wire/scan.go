package wire

// The crawler-side scanners: a timeline page and an instance document read
// for the fields a crawler keeps, without materialising the rest. They
// drive the decoder the shape decoders drive, so every rule in decode.go
// holds here too: keys fold case, duplicate keys are last-wins (a nested
// object merges), null is a no-op, and a field that is dropped still has
// its type checked — "title":7 is an error whether or not the title is kept.

// StatusView is one status of a timeline page as ScanStatuses hands it to
// its callback. ID, CreatedAt, Content and Acct alias the page or the
// scanner's scratch and are valid until the callback returns. Tags is
// freshly allocated and the callback's to keep; it is nil for a status
// without tags.
type StatusView struct {
	ID, CreatedAt, Content, Acct []byte
	Boost                        bool     // "reblog" holds an object
	Tags                         []string // the tag names, in order
}

// ScanStatuses validates a status page and calls fn once per element, in
// order. An error means the page as a whole is bad, and may come after fn
// has seen the statuses before the damage: a caller that retries the page
// must be able to forget them. null and [] are pages of no statuses; a null
// element is a status with nothing set.
func ScanStatuses(data []byte, fn func(*StatusView)) error {
	d := &decoder{data: data}
	var v StatusView
	if _, err := d.arrayValue(func() {}, func() error {
		v = StatusView{}
		d.scratch = d.scratch[:0]
		if err := d.scanStatus(&v); err != nil {
			return err
		}
		if len(v.Tags) == 0 {
			v.Tags = nil
		}
		fn(&v)
		return nil
	}); err != nil {
		return err
	}
	return d.end()
}

// scanStatus reads one status object (or null) into v.
func (d *decoder) scanStatus(v *StatusView) error {
	return d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "id"):
			return d.viewValue(&v.ID)
		case fieldIs(key, "created_at"):
			return d.viewValue(&v.CreatedAt)
		case fieldIs(key, "content"):
			return d.viewValue(&v.Content)
		case fieldIs(key, "account"):
			return true, d.object(func(key []byte) (bool, error) {
				switch {
				case fieldIs(key, "username"):
					return d.checkString()
				case fieldIs(key, "acct"):
					return d.viewValue(&v.Acct)
				}
				return false, nil
			})
		case fieldIs(key, "reblog"):
			c, err := d.peek()
			if err != nil {
				return false, err
			}
			if c == 'n' {
				v.Boost = false
				return true, d.lit("null")
			}
			v.Boost = true
			return true, d.object(func(key []byte) (bool, error) {
				if fieldIs(key, "uri") {
					return d.checkString()
				}
				return false, nil
			})
		case fieldIs(key, "tags"):
			// The stdlib's slice semantics, as in stringSliceValue: a second
			// "tags" key decodes into the first one's elements in place.
			tags, n := v.Tags, 0
			handled, err := d.arrayValue(
				func() { tags, n = nil, -1 },
				func() error {
					if n >= len(tags) {
						tags = append(tags, "")
					}
					n++
					name := &tags[n-1]
					return d.object(func(key []byte) (bool, error) {
						if fieldIs(key, "name") {
							return d.stringValue(name)
						}
						return false, nil
					})
				})
			if err != nil || !handled {
				return handled, err
			}
			if n >= 0 {
				tags = tags[:n]
			}
			v.Tags = tags
			return true, nil
		}
		return false, nil
	})
}

// InstanceView is the part of an instance document a probe keeps. Version
// aliases the document, or a buffer of its own when it was written with
// escapes.
type InstanceView struct {
	Version       []byte
	Registrations bool
	Stats         InstanceStats
}

// ScanInstanceInfo validates an instance document and reads it into v. On
// error v may be partially filled.
func ScanInstanceInfo(data []byte, v *InstanceView) error {
	d := &decoder{data: data}
	if err := d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "uri"), fieldIs(key, "title"):
			return d.checkString()
		case fieldIs(key, "version"):
			return d.viewValue(&v.Version)
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

// viewValue decodes a string-typed field without copying it out: dst
// becomes the bytes between the quotes, or, when those hold escapes or
// non-ASCII bytes, their decoded form appended to the decoder's scratch.
// null is a no-op, anything else a type error.
func (d *decoder) viewValue(dst *[]byte) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, d.lit("null")
	case '"':
		raw, simple, err := d.scanString()
		if err != nil {
			return false, err
		}
		if !simple {
			// A view taken earlier keeps the array it points into even if
			// this append moves the scratch to a larger one.
			n := len(d.scratch)
			d.scratch = unescapeAppend(d.scratch, raw)
			raw = d.scratch[n:]
		}
		*dst = raw
		return true, nil
	default:
		return false, d.typeErr("non-string into string field")
	}
}

// checkString consumes a string-typed field nobody keeps: a string is
// validated and skipped, null is a no-op, anything else a type error.
func (d *decoder) checkString() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, d.lit("null")
	case '"':
		return true, d.skipString()
	default:
		return false, d.typeErr("non-string into string field")
	}
}
