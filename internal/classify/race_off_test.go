//go:build !race

package classify

const raceEnabled = false
