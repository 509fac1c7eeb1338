package dataset

import (
	"bytes"
	"testing"
)

// FuzzWorldFile throws arbitrary bytes at the world-file decoder. The
// contract under fuzz: Load never panics and never allocates past the
// decode budget; any input it does accept is a consistent world — graphs as
// large as their tables, every instance id in range — and re-encodes into a
// byte-stable, re-loadable file (decode is a retraction onto the canonical
// encoding). Nothing that opens with the gzip magic is accepted.
func FuzzWorldFile(f *testing.F) {
	valid := func(w *World) []byte {
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	sample := valid(sampleWorld())
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	f.Add(valid(&World{Seed: 1}))
	f.Add(append([]byte{0x1f, 0x8b, 8}, sample...))
	f.Add([]byte("FDWC"))
	f.Add([]byte{'F', 'D', 'W', 'C', 1, secHeader, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(old int64) { colDecodeBudget = old }(colDecodeBudget)
		colDecodeBudget = 1 << 26 // keep hostile headers cheap under fuzz
		w, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Fatal("gzip-framed input accepted")
		}
		if w.Social != nil && w.Social.NumNodes() != len(w.Users) ||
			w.Federation != nil && w.Federation.NumNodes() != len(w.Instances) {
			t.Fatal("accepted world's graphs do not match its tables")
		}
		inRange := func(id int32) bool { return id >= 0 && int(id) < len(w.Instances) }
		for i := range w.Users {
			if !inRange(w.Users[i].Instance) {
				t.Fatalf("accepted user %d on instance %d of %d", i, w.Users[i].Instance, len(w.Instances))
			}
		}
		for i := range w.Instances {
			for _, b := range w.Instances[i].Blocks {
				if !inRange(b) {
					t.Fatalf("accepted instance %d blocking %d of %d", i, b, len(w.Instances))
				}
			}
		}
		var first bytes.Buffer
		if err := w.Save(&first); err != nil {
			t.Fatalf("accepted world does not re-save: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded world does not re-load: %v", err)
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatalf("re-loaded world does not re-save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("canonical re-encoding is not byte-stable")
		}
	})
}
