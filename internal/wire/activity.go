package wire

import (
	"fmt"
	"math"
	"time"
)

// The federation envelope lives here (with type aliases in
// internal/federation) so its codec can share the wire primitives without
// an import cycle: federation builds on wire, never the reverse. Error
// strings keep the "federation:" prefix because that is the domain the
// types belong to.

// ActivityType enumerates the wire activity kinds.
type ActivityType string

// Actor identifies an account as user@domain.
type Actor struct {
	User   string `json:"user"`
	Domain string `json:"domain"`
}

// String renders the canonical user@domain form.
func (a Actor) String() string { return a.User + "@" + a.Domain }

// Note is the content payload of a Create activity (a toot on the wire).
type Note struct {
	ID        string    `json:"id"`
	Author    Actor     `json:"author"`
	Content   string    `json:"content"`
	Hashtags  []string  `json:"hashtags,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// Activity is the federation envelope.
type Activity struct {
	Type   ActivityType `json:"type"`
	From   Actor        `json:"from"`             // initiating account
	Target Actor        `json:"target,omitempty"` // followed/unfollowed account
	Note   *Note        `json:"note,omitempty"`   // payload for Create/Announce
}

// The times a note may carry: exactly those UnixNano represents.
var (
	minNoteTime = time.Unix(0, math.MinInt64)
	maxNoteTime = time.Unix(0, math.MaxInt64)
)

// Validate checks structural invariants before an activity is accepted.
func (a *Activity) Validate() error {
	if a.From.User == "" || a.From.Domain == "" {
		return fmt.Errorf("federation: %s activity without a from actor", a.Type)
	}
	switch a.Type {
	case "Follow", "Undo":
		if a.Target.User == "" || a.Target.Domain == "" {
			return fmt.Errorf("federation: %s activity without a target", a.Type)
		}
	case "Create", "Announce":
		if a.Note == nil {
			return fmt.Errorf("federation: %s activity without a note", a.Type)
		}
		if a.Note.ID == "" {
			return fmt.Errorf("federation: note without id")
		}
		// A server stores a note's time as UnixNano, which wraps outside
		// these bounds: a note sent without created_at (the zero time)
		// would be served back dated 1754.
		if t := a.Note.CreatedAt; t.Before(minNoteTime) || t.After(maxNoteTime) {
			return fmt.Errorf("federation: note created_at %s outside 1677-2262", t.Format(time.RFC3339))
		}
	default:
		return fmt.Errorf("federation: unknown activity type %q", a.Type)
	}
	return nil
}

func appendActor(dst []byte, a *Actor) []byte {
	dst = append(dst, `{"user":`...)
	dst = AppendJSONString(dst, a.User)
	dst = append(dst, `,"domain":`...)
	dst = AppendJSONString(dst, a.Domain)
	return append(dst, '}')
}

// AppendActivity appends the JSON encoding of a, byte-identical to
// encoding/json's output for the same struct (the target actor is always
// emitted — omitempty never fires on a struct — and the note only when
// present).
func AppendActivity(dst []byte, a *Activity) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = AppendJSONString(dst, string(a.Type))
	dst = append(dst, `,"from":`...)
	dst = appendActor(dst, &a.From)
	dst = append(dst, `,"target":`...)
	dst = appendActor(dst, &a.Target)
	if n := a.Note; n != nil {
		dst = append(dst, `,"note":{"id":`...)
		dst = AppendJSONString(dst, n.ID)
		dst = append(dst, `,"author":`...)
		dst = appendActor(dst, &n.Author)
		dst = append(dst, `,"content":`...)
		dst = AppendJSONString(dst, n.Content)
		if len(n.Hashtags) > 0 {
			dst = append(dst, `,"hashtags":[`...)
			for i, h := range n.Hashtags {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = AppendJSONString(dst, h)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"created_at":`...)
		var err error
		if dst, err = appendTimeJSON(dst, n.CreatedAt); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// Encode serialises the activity to JSON.
func (a *Activity) Encode() ([]byte, error) { return AppendActivity(nil, a) }

func (d *decoder) actorValue(a *Actor) (bool, error) {
	return true, d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "user"):
			return d.stringValue(&a.User)
		case fieldIs(key, "domain"):
			return d.stringValue(&a.Domain)
		}
		return false, nil
	})
}

// UnmarshalActivity decodes data into a with encoding/json's semantics
// (no validation — DecodeActivity adds that). On error a may be partially
// filled.
func UnmarshalActivity(data []byte, a *Activity) error {
	d := &decoder{data: data}
	if err := d.object(func(key []byte) (bool, error) {
		switch {
		case fieldIs(key, "type"):
			return d.stringValue((*string)(&a.Type))
		case fieldIs(key, "from"):
			return d.actorValue(&a.From)
		case fieldIs(key, "target"):
			return d.actorValue(&a.Target)
		case fieldIs(key, "note"):
			c, err := d.peek()
			if err != nil {
				return false, err
			}
			if c == 'n' {
				if err := d.lit("null"); err != nil {
					return false, err
				}
				a.Note = nil
				return true, nil
			}
			if a.Note == nil {
				a.Note = &Note{}
			}
			n := a.Note
			return true, d.object(func(key []byte) (bool, error) {
				switch {
				case fieldIs(key, "id"):
					return d.stringValue(&n.ID)
				case fieldIs(key, "author"):
					return d.actorValue(&n.Author)
				case fieldIs(key, "content"):
					return d.stringValue(&n.Content)
				case fieldIs(key, "hashtags"):
					return d.stringSliceValue(&n.Hashtags)
				case fieldIs(key, "created_at"):
					// time.Time implements json.Unmarshaler: hand it the raw
					// value bytes, exactly as the stdlib does.
					raw, err := d.rawValue()
					if err != nil {
						return false, err
					}
					return true, n.CreatedAt.UnmarshalJSON(raw)
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

// DecodeActivity parses and validates a wire activity.
func DecodeActivity(data []byte) (*Activity, error) {
	var a Activity
	if err := UnmarshalActivity(data, &a); err != nil {
		return nil, fmt.Errorf("federation: bad activity: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}
