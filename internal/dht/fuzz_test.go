package dht

import (
	"fmt"
	"testing"
)

// FuzzRing drives a Ring through an arbitrary op stream — join, SetDown,
// Put, Get, Lookup — two bytes per op (op 1 is unassigned, so the committed
// corpus reads as it was written), and checks the package
// invariants after every step: no panics anywhere (the empty-ring and
// collision regressions), owner == first holder, bounded hops, and the
// availability invariant (a stored key resolves iff one of its current
// holders is up).
func FuzzRing(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x03, 0x00, 0x04, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x01, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x00})
	f.Add([]byte{0x03, 0x07, 0x04, 0x07, 0x05, 0x07})
	f.Add([]byte{0x00, 0x01, 0x02, 0x01, 0x03, 0x01, 0x01, 0x01, 0x04, 0x01, 0x05, 0x01})

	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRing(3)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			name := fmt.Sprintf("n%d.test", arg%32)
			key := fmt.Sprintf("key-%d", arg%16)
			switch op % 6 {
			case 0:
				r.Join(name)
			case 2:
				r.SetDown(name, arg%2 == 0)
			case 3:
				holders, err := r.Put(key, []string{name})
				if (err == nil) != (r.Size() > 0) {
					t.Fatalf("put err=%v with %d members", err, r.Size())
				}
				if err == nil {
					owner, hops, lerr := r.Lookup(key)
					if lerr != nil {
						t.Fatalf("lookup after put: %v", lerr)
					}
					if owner != holders[0] {
						t.Fatalf("owner %s != primary holder %s", owner, holders[0])
					}
					if hops > 10*64 {
						t.Fatalf("hops %d unbounded", hops)
					}
				}
			case 4:
				val, _, err := r.Get(key)
				if err == nil && len(val) == 0 {
					t.Fatal("get returned empty value without error")
				}
			case 5:
				r.Lookup(key)
			}
			// Availability invariant over the whole store.
			for _, k := range r.Keys() {
				holders, herr := r.Holders(k)
				_, _, gerr := r.Get(k)
				if herr != nil {
					if gerr == nil {
						t.Fatalf("key %q resolvable on empty ring", k)
					}
					continue
				}
				anyUp := false
				for _, h := range holders {
					if !r.Down(h) {
						anyUp = true
					}
				}
				if anyUp != (gerr == nil) {
					t.Fatalf("key %q: holders %v anyUp=%v get err=%v", k, holders, anyUp, gerr)
				}
			}
		}
	})
}
