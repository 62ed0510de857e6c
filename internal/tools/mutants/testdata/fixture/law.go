// Package fixture is the mutation tool's own check: one law, the test that
// holds it, and (in mutants.txt) one mutant of the law that test must kill.
package fixture

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
