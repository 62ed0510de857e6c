//go:build !race

package clock

const raceEnabled = false
