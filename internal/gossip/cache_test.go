package gossip

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSeenCacheAddAndContains(t *testing.T) {
	c := newSeenCache(4)
	if !c.Add("a") {
		t.Fatal("first add reported duplicate")
	}
	if c.Add("a") {
		t.Fatal("second add reported new")
	}
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("contains wrong")
	}
}

func TestSeenCacheEviction(t *testing.T) {
	c := newSeenCache(3)
	for _, id := range []string{"a", "b", "c", "d"} {
		c.Add(id)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Contains("a") {
		t.Fatal("oldest entry not evicted")
	}
	if !c.Contains("d") {
		t.Fatal("newest entry missing")
	}
}

func TestSeenCacheLRURefresh(t *testing.T) {
	c := newSeenCache(3)
	c.Add("a")
	c.Add("b")
	c.Add("c")
	c.Add("a") // refresh a
	c.Add("d") // evicts b, not a
	if !c.Contains("a") {
		t.Fatal("refreshed entry evicted")
	}
	if c.Contains("b") {
		t.Fatal("stale entry survived")
	}
}

func TestSeenCacheCapacityProperty(t *testing.T) {
	f := func(capRaw uint8, ids []string) bool {
		capacity := 1 + int(capRaw)%32
		c := newSeenCache(capacity)
		for _, id := range ids {
			c.Add(id)
		}
		return c.Len() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRumorStorePutGet(t *testing.T) {
	s := newStore[Rumor](4)
	s.Hold(Rumor{ID: "r1", Hops: 3, Payload: []byte("x")})
	got, ok := s.Get([]byte("r1"))
	if !ok || got.Hops != 3 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("missing rumor found")
	}
}

// TestStoreFirstPutWins: a second put of a held ID changes nothing, whatever
// its hop budget.
func TestStoreFirstPutWins(t *testing.T) {
	s := newStore[Rumor](4)
	s.Hold(Rumor{ID: "r1", Hops: 2})
	s.Hold(Rumor{ID: "r1", Hops: 5})
	s.Hold(Rumor{ID: "r1", Hops: 1})
	if got, _ := s.Get([]byte("r1")); got.Hops != 2 {
		t.Fatalf("hops = %d, want the first put's 2", got.Hops)
	}
	if len(s.slots) != 1 || len(s.index) != 1 {
		t.Fatalf("slots %d, index %d", len(s.slots), len(s.index))
	}
}

func TestRumorStoreFIFOEviction(t *testing.T) {
	s := newStore[Rumor](2)
	s.Hold(Rumor{ID: "a"})
	s.Hold(Rumor{ID: "b"})
	s.Hold(Rumor{ID: "c"})
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("oldest rumor survived")
	}
	if _, ok := s.Get([]byte("c")); !ok {
		t.Fatal("newest rumor evicted")
	}
}

func TestRumorStoreRecentRefs(t *testing.T) {
	s := newStore[Rumor](8)
	for i := 0; i < 5; i++ {
		s.Hold(Rumor{ID: fmt.Sprintf("r%d", i), Hops: i})
	}
	if len(s.slots) != 5 {
		t.Fatalf("len = %d", len(s.slots))
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
		s.Hold(Rumor{ID: fmt.Sprintf("r%d", i)})
	}
	missing := s.Missing(sumsOf("r1", "r3", "r1", "unknown"), false, 10)
	if len(missing) != 2 || missing[0].ID != "r2" || missing[1].ID != "r0" {
		t.Fatalf("missing = %v, want r2 r0", missing)
	}
	capped := s.Missing(nil, false, 1)
	if len(capped) != 1 || capped[0].ID != "r3" {
		t.Fatalf("capped = %v, want r3", capped)
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
	if !s.Add("x") || s.Add("x") {
		t.Fatal("basic add semantics broken")
	}
	if !s.ContainsBytes([]byte("x")) {
		t.Fatal("contains broken")
	}
}

// TestSeenSetTouchBytes: TouchBytes is the duplicate half of Add for an ID
// still in a message buffer — same answer, same recency refresh, no insert,
// no allocation, and no reference kept to the buffer.
func TestSeenSetTouchBytes(t *testing.T) {
	s := NewSeenSet(3)
	buf := []byte("a")
	if s.TouchBytes(buf) || s.Len() != 0 {
		t.Fatal("TouchBytes of an absent id reported present or inserted it")
	}
	s.Add("a")
	s.Add("b")
	s.Add("c")
	if !s.TouchBytes(buf) { // refresh a
		t.Fatal("TouchBytes missed a present id")
	}
	buf[0] = 'z' // the buffer is recycled
	s.Add("d")   // evicts b, not the refreshed a
	has := func(id string) bool { return s.ContainsBytes([]byte(id)) }
	if !has("a") || has("b") || has("z") {
		t.Fatalf("after refresh+evict: a=%v b=%v z=%v", has("a"), has("b"), has("z"))
	}
	id := []byte("urn:uuid:6ba7b810-9dad-11d1-80b4-00c04fd430c8")
	s.Add(string(id))
	if allocs := testing.AllocsPerRun(100, func() { s.TouchBytes(id) }); allocs != 0 {
		t.Fatalf("TouchBytes allocates %.1f per duplicate", allocs)
	}
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
