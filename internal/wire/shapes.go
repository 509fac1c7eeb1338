package wire

// The JSON wire shapes of the instance HTTP surface. The structs carry
// encoding/json tags so the differential fuzz targets can hold the codecs
// against the stdlib; the hand-rolled paths below never use them.

// InstanceInfo is the /api/v1/instance document (§3's monitored fields).
type InstanceInfo struct {
	URI           string        `json:"uri"`
	Title         string        `json:"title"`
	Version       string        `json:"version"`
	Registrations bool          `json:"registrations"`
	Stats         InstanceStats `json:"stats"`
}

// InstanceStats is the stats block of an InstanceInfo.
type InstanceStats struct {
	UserCount     int   `json:"user_count"`
	StatusCount   int64 `json:"status_count"`
	DomainCount   int   `json:"domain_count"`
	RemoteFollows int   `json:"remote_follows"`
}

// Status is the wire form of a toot, a faithful subset of Mastodon's
// Status entity.
type Status struct {
	ID        string        `json:"id"`
	CreatedAt string        `json:"created_at"`
	Content   string        `json:"content"`
	Account   StatusAccount `json:"account"`
	Reblog    *StatusReblog `json:"reblog,omitempty"`
	Tags      []StatusTag   `json:"tags,omitempty"`
}

// StatusAccount identifies a toot's author.
type StatusAccount struct {
	Username string `json:"username"`
	Acct     string `json:"acct"`
}

// StatusReblog marks a status as a boost of another note.
type StatusReblog struct {
	URI string `json:"uri"`
}

// StatusTag is one hashtag entry.
type StatusTag struct {
	Name string `json:"name"`
}

// AppendInstanceInfo appends the JSON document, byte-identical to
// encoding/json's output for the same struct.
func AppendInstanceInfo(dst []byte, v *InstanceInfo) []byte {
	dst = append(dst, `{"uri":`...)
	dst = AppendJSONString(dst, v.URI)
	dst = append(dst, `,"title":`...)
	dst = AppendJSONString(dst, v.Title)
	dst = append(dst, `,"version":`...)
	dst = AppendJSONString(dst, v.Version)
	dst = append(dst, `,"registrations":`...)
	dst = appendBool(dst, v.Registrations)
	dst = append(dst, `,"stats":{"user_count":`...)
	dst = appendInt(dst, int64(v.Stats.UserCount))
	dst = append(dst, `,"status_count":`...)
	dst = appendInt(dst, v.Stats.StatusCount)
	dst = append(dst, `,"domain_count":`...)
	dst = appendInt(dst, int64(v.Stats.DomainCount))
	dst = append(dst, `,"remote_follows":`...)
	dst = appendInt(dst, int64(v.Stats.RemoteFollows))
	return append(dst, '}', '}')
}

// AppendPeers appends the peers-list JSON array (nil encodes as null,
// exactly like encoding/json).
func AppendPeers(dst []byte, peers []string) []byte {
	if peers == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, p := range peers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, p)
	}
	return append(dst, ']')
}

// DecodePeers decodes a peers list, appending to dst[:0]-style reuse
// buffers: pass nil for a fresh decode. null yields nil, [] a non-nil
// empty slice — the stdlib's slice semantics.
func DecodePeers(data []byte, dst []string) ([]string, error) {
	d := &decoder{data: data}
	out := dst
	if _, err := d.stringSliceValue(&out); err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendStatus appends one status object.
func AppendStatus(dst []byte, s *Status) []byte {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, s.ID)
	dst = append(dst, `,"created_at":`...)
	dst = AppendJSONString(dst, s.CreatedAt)
	dst = append(dst, `,"content":`...)
	dst = AppendJSONString(dst, s.Content)
	dst = append(dst, `,"account":{"username":`...)
	dst = AppendJSONString(dst, s.Account.Username)
	dst = append(dst, `,"acct":`...)
	dst = AppendJSONString(dst, s.Account.Acct)
	dst = append(dst, '}')
	if s.Reblog != nil {
		dst = append(dst, `,"reblog":{"uri":`...)
		dst = AppendJSONString(dst, s.Reblog.URI)
		dst = append(dst, '}')
	}
	if len(s.Tags) > 0 {
		dst = append(dst, `,"tags":[`...)
		for i := range s.Tags {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = AppendJSONString(dst, s.Tags[i].Name)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendStatuses appends a status page (nil encodes as null).
func AppendStatuses(dst []byte, page []Status) []byte {
	if page == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendStatus(dst, &page[i])
	}
	return append(dst, ']')
}
