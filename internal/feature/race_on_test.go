//go:build race

package feature

// raceEnabled: under the race detector sync.Pool drops a share of its Puts
// on purpose, so pooled scratch is reallocated and allocation ceilings do
// not hold.
const raceEnabled = true
