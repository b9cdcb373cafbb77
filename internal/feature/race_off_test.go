//go:build !race

package feature

const raceEnabled = false
