package gossip

import "sync"

// SeenSet is a concurrency-safe bounded LRU set of message identifiers — the
// Machine's seen cache behind a lock of its own, for code that deduplicates
// without a Machine. Like the Machine it keeps each identifier's sum
// (IDSum), not the identifier.
type SeenSet struct {
	mu sync.Mutex
	c  seenCache
}

// NewSeenSet returns a set bounded to capacity entries (<=0 uses the
// engine's default).
func NewSeenSet(capacity int) *SeenSet {
	if capacity <= 0 {
		capacity = DefaultSeenCacheSize
	}
	return &SeenSet{c: newSeenCache(capacity)}
}

// Add inserts id and reports whether it was not already present.
func (s *SeenSet) Add(id string) bool {
	sum := IDSum(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Add(sum)
}

// Len returns the number of tracked identifiers.
func (s *SeenSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Len()
}

// IDIndex interns message identifiers to dense small integers. A simulated
// population shares one index so per-node delivery tracking can be a bitset
// (DenseSeen) instead of a map of strings: at N=10^6 nodes a string-keyed
// set per node is gigabytes, a bitset over interned IDs is N bits per rumor.
// Safe for concurrent use.
type IDIndex struct {
	mu  sync.RWMutex
	idx map[string]int
	ids []string
}

// NewIDIndex returns an empty index.
func NewIDIndex() *IDIndex {
	return &IDIndex{idx: make(map[string]int)}
}

// Index returns the dense integer for id, assigning the next one on first
// sight. Indices are assigned in first-seen order starting at 0.
func (x *IDIndex) Index(id string) int {
	x.mu.RLock()
	i, ok := x.idx[id]
	x.mu.RUnlock()
	if ok {
		return i
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if i, ok := x.idx[id]; ok {
		return i
	}
	i = len(x.ids)
	x.idx[id] = i
	x.ids = append(x.ids, id)
	return i
}

// Lookup returns the index for id without assigning one.
func (x *IDIndex) Lookup(id string) (int, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	i, ok := x.idx[id]
	return i, ok
}

// ID returns the identifier for a dense index.
func (x *IDIndex) ID(i int) string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.ids[i]
}

// Len returns the number of interned identifiers.
func (x *IDIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.ids)
}

// DenseSeen is a compact seen-set over IDIndex indices: one bit per
// identifier, growing on demand. The zero value is ready to use. Not safe
// for concurrent use — in the simulator each node's set is touched only from
// the deterministic event loop.
type DenseSeen struct {
	bits []uint64
	n    int
}

// Add marks index i seen and reports whether it was newly added.
func (s *DenseSeen) Add(i int) bool {
	w, b := i>>6, uint(i&63)
	if w >= len(s.bits) {
		grown := make([]uint64, w+1)
		copy(grown, s.bits)
		s.bits = grown
	}
	if s.bits[w]&(1<<b) != 0 {
		return false
	}
	s.bits[w] |= 1 << b
	s.n++
	return true
}

// Contains reports whether index i is marked.
func (s *DenseSeen) Contains(i int) bool {
	w, b := i>>6, uint(i&63)
	return w < len(s.bits) && s.bits[w]&(1<<b) != 0
}

// Count returns the number of marked indices.
func (s *DenseSeen) Count() int { return s.n }
