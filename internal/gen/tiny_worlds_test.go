package gen

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// The smallest worlds generate and survive the file format: one to three
// instances, one to fifty users, five seeds. With one instance it is
// often isolated (its users follow only locally), which left the global
// follow sampler with no one to draw from and Generate panicking.
func TestGenerateTinyWorlds(t *testing.T) {
	for _, insts := range []int{1, 2, 3} {
		for _, users := range []int{1, 2, 50} {
			for seed := uint64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%d-instances/%d-users/seed-%d", insts, users, seed), func(t *testing.T) {
					cfg := TinyConfig(seed)
					cfg.Instances, cfg.Users = insts, users
					w := Generate(cfg)
					// Every instance gets at least one user.
					if len(w.Instances) != insts || len(w.Users) != max(users, insts) {
						t.Fatalf("%d instances, %d users", len(w.Instances), len(w.Users))
					}
					var first, again bytes.Buffer
					if err := w.Save(&first); err != nil {
						t.Fatal(err)
					}
					loaded, err := dataset.Load(bytes.NewReader(first.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					if err := loaded.Save(&again); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(first.Bytes(), again.Bytes()) {
						t.Fatal("Save→Load→Save changed the file")
					}
				})
			}
		}
	}
}
