package gossip

import (
	"fmt"
	"sync"
	"testing"
)

func TestIDIndexAssignsDenseFirstSeenOrder(t *testing.T) {
	x := NewIDIndex()
	if got := x.Index("a"); got != 0 {
		t.Fatalf("first id index = %d, want 0", got)
	}
	if got := x.Index("b"); got != 1 {
		t.Fatalf("second id index = %d, want 1", got)
	}
	if got := x.Index("a"); got != 0 {
		t.Fatalf("repeat id index = %d, want 0", got)
	}
	if i, ok := x.Lookup("b"); !ok || i != 1 {
		t.Fatalf("Lookup(b) = %d,%v", i, ok)
	}
	if _, ok := x.Lookup("c"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
	if x.ID(1) != "b" || x.Len() != 2 {
		t.Fatalf("ID(1)=%q Len=%d", x.ID(1), x.Len())
	}
}

func TestIDIndexConcurrent(t *testing.T) {
	x := NewIDIndex()
	var wg sync.WaitGroup
	const goroutines, ids = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				x.Index(fmt.Sprintf("id-%d", i))
			}
		}()
	}
	wg.Wait()
	if x.Len() != ids {
		t.Fatalf("Len = %d, want %d (duplicate assignment under concurrency)", x.Len(), ids)
	}
	seen := map[int]bool{}
	for i := 0; i < ids; i++ {
		idx := x.Index(fmt.Sprintf("id-%d", i))
		if idx < 0 || idx >= ids || seen[idx] {
			t.Fatalf("index %d for id-%d not a dense permutation", idx, i)
		}
		seen[idx] = true
	}
}

func TestDenseSeen(t *testing.T) {
	var s DenseSeen
	if s.Contains(0) || s.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	if !s.Add(5) {
		t.Fatal("first Add reported duplicate")
	}
	if s.Add(5) {
		t.Fatal("second Add reported new")
	}
	if !s.Add(64) || !s.Add(1000) { // word-boundary and growth
		t.Fatal("Add across word boundary failed")
	}
	if !s.Contains(5) || !s.Contains(64) || !s.Contains(1000) || s.Contains(999) {
		t.Fatal("Contains wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
}

// TestSeenCacheMatchesMapList cross-checks the arena LRU against a simple
// model under a long mixed workload: hits, misses, and evictions.
func TestSeenCacheMatchesModel(t *testing.T) {
	const capacity = 32
	c := newSeenCache(capacity)
	type modelEntry struct{ id string }
	var order []string // front = most recent
	model := map[string]bool{}
	touch := func(id string) bool {
		if model[id] {
			for i, v := range order {
				if v == id {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append([]string{id}, order...)
			return false
		}
		model[id] = true
		order = append([]string{id}, order...)
		for len(order) > capacity {
			oldest := order[len(order)-1]
			order = order[:len(order)-1]
			delete(model, oldest)
		}
		return true
	}
	h := uint64(0x12345)
	for i := 0; i < 20000; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		id := fmt.Sprintf("r%d", h%100) // heavy reuse to exercise LRU moves
		want := touch(id)
		if got := c.Add(IDSum(id)); got != want {
			t.Fatalf("step %d Add(%s) = %v, model %v", i, id, got, want)
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d Len = %d, model %d", i, c.Len(), len(model))
		}
	}
	for id := range model {
		if !c.Contains(IDSum(id)) {
			t.Fatalf("model retains %s, cache does not", id)
		}
	}
}

// TestStoreRingWrap drives the ring through many evictions and checks the
// order-sensitive reads.
func TestStoreRingWrap(t *testing.T) {
	const capacity = 50
	s := newStore[Rumor](capacity)
	for i := 0; i < 5000; i++ {
		holdRumor(&s, Rumor{ID: fmt.Sprintf("r%d", i), Hops: i % 7})
	}
	if len(s.ring) != capacity || s.index.filed() != capacity {
		t.Fatalf("slots %d, index %d, want %d", len(s.ring), s.index.filed(), capacity)
	}
	for k := 0; k < 5; k++ {
		if got, want := s.nth(k).v.ID, fmt.Sprintf("r%d", 4999-k); got != want {
			t.Fatalf("newest %d = %s, want %s", k, got, want)
		}
	}
	if _, ok := s.Get(IDSum("r0")); ok {
		t.Fatal("oldest rumor not evicted")
	}
	if _, ok := s.Get(IDSum("r4999")); !ok {
		t.Fatal("newest rumor missing")
	}
	missing := s.Missing(nil, sumsOf("r4999", "r4998"), false, 3)
	if len(missing) != 3 || missing[0].ID != "r4997" || missing[1].ID != "r4996" || missing[2].ID != "r4995" {
		t.Fatalf("missing = %v", missing)
	}
}
