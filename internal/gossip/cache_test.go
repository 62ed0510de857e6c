package gossip

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"wsgossip/internal/testkit"
)

func TestSeenCacheAddAndContains(t *testing.T) {
	c := newSeenCache(4)
	if !c.Add(IDSum("a")) {
		t.Fatal("first add reported duplicate")
	}
	if c.Add(IDSum("a")) {
		t.Fatal("second add reported new")
	}
	if !c.Contains(IDSum("a")) || c.Contains(IDSum("b")) {
		t.Fatal("contains wrong")
	}
}

func TestSeenCacheEviction(t *testing.T) {
	c := newSeenCache(3)
	for _, id := range []string{"a", "b", "c", "d"} {
		c.Add(IDSum(id))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Contains(IDSum("a")) {
		t.Fatal("oldest entry not evicted")
	}
	if !c.Contains(IDSum("d")) {
		t.Fatal("newest entry missing")
	}
}

func TestSeenCacheLRURefresh(t *testing.T) {
	c := newSeenCache(3)
	c.Add(IDSum("a"))
	c.Add(IDSum("b"))
	c.Add(IDSum("c"))
	c.Add(IDSum("a")) // refresh a
	c.Add(IDSum("d")) // evicts b, not a
	if !c.Contains(IDSum("a")) {
		t.Fatal("refreshed entry evicted")
	}
	if c.Contains(IDSum("b")) {
		t.Fatal("stale entry survived")
	}
}

func TestSeenCacheCapacityProperty(t *testing.T) {
	f := func(capRaw uint8, ids []string) bool {
		capacity := 1 + int(capRaw)%32
		c := newSeenCache(capacity)
		for _, id := range ids {
			c.Add(IDSum(id))
		}
		return c.Len() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRumorStorePutGet(t *testing.T) {
	s := newStore[Rumor](4)
	holdRumor(&s, Rumor{ID: "r1", Hops: 3, Payload: []byte("x")})
	got, ok := s.Get(IDSum("r1"))
	if !ok || got.Hops != 3 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(IDSum("missing")); ok {
		t.Fatal("missing rumor found")
	}
}

// TestStoreFirstPutWins: a second put of a held ID changes nothing, whatever
// its hop budget.
func TestStoreFirstPutWins(t *testing.T) {
	s := newStore[Rumor](4)
	holdRumor(&s, Rumor{ID: "r1", Hops: 2})
	holdRumor(&s, Rumor{ID: "r1", Hops: 5})
	holdRumor(&s, Rumor{ID: "r1", Hops: 1})
	if got, _ := s.Get(IDSum("r1")); got.Hops != 2 {
		t.Fatalf("hops = %d, want the first put's 2", got.Hops)
	}
	if len(s.ring) != 1 || s.index.filed() != 1 {
		t.Fatalf("slots %d, index %d", len(s.ring), s.index.filed())
	}
}

func TestRumorStoreFIFOEviction(t *testing.T) {
	s := newStore[Rumor](2)
	holdRumor(&s, Rumor{ID: "a"})
	holdRumor(&s, Rumor{ID: "b"})
	holdRumor(&s, Rumor{ID: "c"})
	if _, ok := s.Get(IDSum("a")); ok {
		t.Fatal("oldest rumor survived")
	}
	if _, ok := s.Get(IDSum("c")); !ok {
		t.Fatal("newest rumor evicted")
	}
}

func TestRumorStoreRecentRefs(t *testing.T) {
	s := newStore[Rumor](8)
	for i := 0; i < 5; i++ {
		holdRumor(&s, Rumor{ID: fmt.Sprintf("r%d", i), Hops: i})
	}
	if len(s.ring) != 5 {
		t.Fatalf("len = %d", len(s.ring))
	}
	for k := 0; k < 5; k++ {
		if got, want := s.nth(k).v.ID, fmt.Sprintf("r%d", 4-k); got != want {
			t.Fatalf("newest %d = %s, want %s", k, got, want)
		}
	}
}

func TestRumorStoreMissingFrom(t *testing.T) {
	s := newStore[Rumor](8)
	for i := 0; i < 4; i++ {
		holdRumor(&s, Rumor{ID: fmt.Sprintf("r%d", i)})
	}
	missing := s.Missing(nil, sumsOf("r1", "r3", "r1", "unknown"), false, 10)
	if len(missing) != 2 || missing[0].ID != "r2" || missing[1].ID != "r0" {
		t.Fatalf("missing = %v, want r2 r0", missing)
	}
	capped := s.Missing(nil, nil, false, 1)
	if len(capped) != 1 || capped[0].ID != "r3" {
		t.Fatalf("capped = %v, want r3", capped)
	}
	// Missing appends to what the caller's buffer holds, max counting only
	// what it appends.
	var scratch [4]Rumor
	appended := s.Missing(append(scratch[:0], Rumor{ID: "kept"}), nil, false, 2)
	if len(appended) != 3 || appended[0].ID != "kept" || appended[1].ID != "r3" || appended[2].ID != "r2" || &appended[0] != &scratch[0] {
		t.Fatalf("appended = %v, want kept r3 r2 in the caller's buffer", appended)
	}
}

// TestStoreEvictee: while the store grows nothing is evicted; once it is full
// Evictee names the oldest value, which the next Hold of a new sum replaces.
func TestStoreEvictee(t *testing.T) {
	s := newStore[Rumor](3)
	for i := 0; i < 3; i++ {
		if r, ok := s.Evictee(); ok {
			t.Fatalf("store of %d: evictee %v before it is full", i, r)
		}
		holdRumor(&s, Rumor{ID: fmt.Sprintf("r%d", i)})
	}
	for i := 3; i < 8; i++ {
		r, ok := s.Evictee()
		if want := fmt.Sprintf("r%d", i-3); !ok || r.ID != want {
			t.Fatalf("evictee = %v, %v; want %s", r, ok, want)
		}
		holdRumor(&s, Rumor{ID: fmt.Sprintf("r%d", i)})
		if _, held := s.Get(IDSum(r.ID)); held {
			t.Fatalf("%s still held after the next Hold", r.ID)
		}
	}
	// A Hold of a held sum keeps the store as it was: the evictee stays.
	before, _ := s.Evictee()
	holdRumor(&s, Rumor{ID: "r7", Hops: 9})
	if after, _ := s.Evictee(); after.ID != before.ID || s.Len() != 3 {
		t.Fatalf("evictee %v after a re-Hold, want %v", after, before)
	}
}

func TestSeenSetConcurrent(t *testing.T) {
	s := NewSeenSet(1024)
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 500; i++ {
				s.Add(fmt.Sprintf("g%d-%d", g, i))
			}
			done <- true
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() != 1024 && s.Len() != 2000 {
		// All 2000 unique adds, bounded at capacity 1024.
		t.Fatalf("len = %d", s.Len())
	}
	if s.Len() > 1024 {
		t.Fatalf("len %d exceeds capacity", s.Len())
	}
}

func TestSeenSetDefaultCapacity(t *testing.T) {
	s := NewSeenSet(0)
	if !s.Add("x") || s.Add("x") || s.Len() != 1 {
		t.Fatal("basic add semantics broken")
	}
}

// TestSeenCacheHoldsNoIDs: a seen cache keeps a sum and two links per
// entry, and nothing of the ID it was asked about. A machine's full
// 65,536-entry cache, filled with fresh IDs whose strings the callers then
// drop, costs at most 40 B of heap per entry once they are collected; a
// cache keyed by the IDs themselves kept every string alive, 127 B an entry.
func TestSeenCacheHoldsNoIDs(t *testing.T) {
	if testkit.Race {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const entries, perEntry = DefaultSeenCacheSize, 40
	rng := testRand(39)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMachine[Rumor](entries, 0, 0)
	for range entries {
		id := "urn:uuid:" + NewRumorID(rng)
		if first, _ := m.Receive(IDSum(id), false); !first {
			t.Fatalf("fresh ID %s taken for a duplicate", id)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if m.seen.Len() != entries {
		t.Fatalf("seen cache holds %d, want %d", m.seen.Len(), entries)
	}
	got := float64(after.HeapAlloc-before.HeapAlloc) / entries
	runtime.KeepAlive(m)
	if got > perEntry {
		t.Fatalf("seen cache costs %.1f B of heap per entry, want ≤ %d", got, perEntry)
	}
	t.Logf("seen cache: %.1f B of heap per entry", got)
}

func TestSamplePeersProperties(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%20 + 1
		k := int(kRaw) % 25
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("p%d", i)
		}
		rng := testRand(seed)
		got := SamplePeers(rng, addrs, k, "p0")
		// Never returns the excluded element, never duplicates, never
		// exceeds k or the eligible count.
		if len(got) > k && k >= 0 {
			return false
		}
		seen := map[string]bool{}
		for _, g := range got {
			if g == "p0" || seen[g] {
				return false
			}
			seen[g] = true
		}
		all := SamplePeers(rng, addrs, -1, "p0")
		return len(all) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePeersDoesNotMutateInput(t *testing.T) {
	addrs := []string{"a", "b", "c", "d"}
	orig := append([]string(nil), addrs...)
	SamplePeers(testRand(1), addrs, 2, "")
	for i := range addrs {
		if addrs[i] != orig[i] {
			t.Fatal("input slice mutated")
		}
	}
}

func TestStaticPeersCopies(t *testing.T) {
	in := []string{"a", "b"}
	p := NewStaticPeers(in)
	in[0] = "mutated"
	if p.Addrs()[0] != "a" {
		t.Fatal("constructor did not copy")
	}
	out := p.Addrs()
	out[0] = "mutated"
	if p.Addrs()[0] != "a" {
		t.Fatal("accessor did not copy")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}
