//go:build race

package instance

// raceEnabled skips the allocation counts, which the race detector raises.
const raceEnabled = true
