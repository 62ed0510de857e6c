//go:build !race

package membership

const raceEnabled = false
