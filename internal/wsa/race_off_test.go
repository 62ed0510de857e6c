//go:build !race

package wsa

const raceEnabled = false
