//go:build race

package testutil

// RaceEnabled reports whether the race detector is active. Tests skip
// under it what the detector makes meaningless — allocation counts
// (sync.Pool drops items at random under the detector) — or what it only
// makes slow: long single-goroutine acceptance runs.
const RaceEnabled = true
