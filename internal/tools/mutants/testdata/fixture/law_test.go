package fixture

import "testing"

// TestClampLaw: Clamp's result lies in [lo, hi] and equals x when x does.
func TestClampLaw(t *testing.T) {
	for x := -3; x <= 3; x++ {
		got := Clamp(x, -1, 1)
		if got < -1 || got > 1 || (x >= -1 && x <= 1 && got != x) {
			t.Fatalf("Clamp(%d, -1, 1) = %d", x, got)
		}
	}
}

// TestBlind passes whatever Clamp does: a mutant replayed against it survives.
func TestBlind(t *testing.T) {}
