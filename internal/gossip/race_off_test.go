//go:build !race

package gossip

const raceEnabled = false
