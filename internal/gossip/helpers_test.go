package gossip

import (
	"math/rand"
	"testing"
)

// testRand returns a seeded random source for deterministic tests.
func testRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// digestOf returns a reader over a pull digest listing ids, as handlePullReq
// hands one to the machine.
func digestOf(t testing.TB, ids ...string) wireReader {
	t.Helper()
	refs := make([]RumorRef, len(ids))
	for i, id := range ids {
		refs[i] = RumorRef{ID: id, Hops: 1}
	}
	rd, err := readWire(encodeRefs(refs...), wireRefs)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// missingFrom answers a digest from s as handlePullReq does: the listed IDs'
// sums, then the walk.
func missingFrom(s *store[Rumor], digest wireReader, max int) []Rumor {
	var sums []uint64
	for digest.n > 0 {
		ref, _ := digest.ref()
		sums = append(sums, IDSum(ref.id))
	}
	return s.Missing(sums, false, max)
}
