//go:build !race

package instance

const raceEnabled = false
