//go:build !race

package delivery

const raceEnabled = false
