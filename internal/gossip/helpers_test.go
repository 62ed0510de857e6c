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
// hands one to the store.
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
