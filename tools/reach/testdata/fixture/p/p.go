// Package p has one struct field per way of writing one, four fields no
// binary writes, two it writes and never reads, and two functions no binary
// calls.
package p

import "sync"

// T's fields are each written one way, except Unset and TestOnly, and
// Defaulted and Zeroed, which are only given a default. Each is read, except
// WriteOnly, and DefaultOnly, which only a default's condition looks at.
type T struct {
	Keyed     int
	Assigned  int
	OpAssign  int
	Inc       int
	Addressed int
	Indexed   [2]int
	Sliced    [4]byte
	mu        sync.Mutex
	Unset     int // read, never written
	TestOnly  int // written by a test only
	Defaulted int // if <= 0, set to a constant
	Zeroed    int // if == 0, set to a constant
	Computed  int // if == 0, set to a value: a write

	WriteOnly   int // written, never read
	DefaultOnly int // written, and looked at only to default it
}

// U is built by an unkeyed literal only.
type U struct{ A, B int }

// V's field is read only by comparing a V whole.
type V struct{ C int }

// Run writes T's fields.
func Run(n int) int {
	t := &T{Keyed: n}
	t.Assigned = n
	t.OpAssign += n
	t.Inc++
	set(&t.Addressed)
	t.Indexed[1] = n
	copy(t.Sliced[:], "ab")
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Defaulted <= 0 {
		t.Defaulted = 3
	}
	if t.Zeroed == 0 {
		t.Zeroed = 1.0 // an untyped float constant
	}
	if t.Computed == 0 {
		t.Computed = n
	}
	t.WriteOnly = n
	t.DefaultOnly = n
	if t.DefaultOnly <= 0 {
		t.DefaultOnly = 1
	}
	if (V{n}) == (V{}) {
		n++
	}
	u := U{1, 2}
	return n + t.Keyed + t.Assigned + t.OpAssign + t.Inc + t.Addressed + t.Indexed[1] + int(t.Sliced[0]) +
		t.Unset + t.TestOnly + t.Defaulted + t.Zeroed + t.Computed + u.A + u.B
}

func set(p *int) { *p = 1 }

// Client's Get is called by no binary.
type Client struct{ Name string }

// Get is what TestClientGet calls.
func (c *Client) Get() string { return c.Name }

// Other's Get is the binary's.
type Other struct{}

// Get shares its name with Client's.
func (Other) Get() string { return "other" }

// Dead is called by no binary.
func Dead() int { return 0 }
