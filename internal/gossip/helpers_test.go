package gossip

import "math/rand"

// testRand returns a seeded random source for deterministic tests.
func testRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// sumsOf returns the sums a digest listing ids carries.
func sumsOf(ids ...string) []uint64 {
	sums := make([]uint64, len(ids))
	for i, id := range ids {
		sums[i] = IDSum(id)
	}
	return sums
}

// holdRumor holds r in s under the sum of its ID, as the engine does.
func holdRumor(s *store[Rumor], r Rumor) { s.Hold(IDSum(r.ID), r) }
