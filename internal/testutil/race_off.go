//go:build !race

package testutil

// RaceEnabled reports whether the race detector is active.
const RaceEnabled = false
