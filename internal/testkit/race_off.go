//go:build !race

package testkit

// Race reports whether the binary runs under the race detector.
const Race = false
