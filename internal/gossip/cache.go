package gossip

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"strconv"
)

// The Machine's two bounded collections. Neither keeps a per-entry heap cell:
// at simulation scales (10^5-10^6 engines, each with a seen cache and a
// store) those dominated per-node memory. Each keeps its entries in one
// contiguous arena — the LRU an intrusive doubly-linked list over it, the FIFO
// store a ring of slots — and finds them through one sumTable of arena
// indices.

const noEntry = int32(-1)

// summed is one arena entry: a sum (IDSum) and what is kept under it.
type summed[E any] struct {
	sum uint64
	v   E
}

// sumTable finds an arena's entries by their sums: a table of 4-byte arena
// indices, a power of two long, of at least 8 cells and at least twice the
// arena's capacity, so it is at most half full. It is linear-probed from a sum's home slot, and a
// removal shifts the rest of its cluster back, so it holds no tombstones. It
// starts empty and grows with its arena (fit): most engines of a large
// simulation see a handful of rumors. Every sum in the arena is distinct.
type sumTable[E any] struct {
	cells []uint32 // arena index + 1, or 0 for empty
	shift uint8    // 64 - log2(len(cells))
}

// home is sum's first probe slot, taken from the top bits of a Fibonacci
// multiple so that sums differing only in their low bits spread too.
func (t *sumTable[E]) home(sum uint64) int {
	return int((sum * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding sum and its arena index, or the empty slot
// where its probe ended and noEntry.
func (t *sumTable[E]) find(arena []summed[E], sum uint64) (pos int, i int32) {
	if len(t.cells) == 0 {
		return 0, noEntry
	}
	mask := len(t.cells) - 1
	for pos = t.home(sum); ; pos = (pos + 1) & mask {
		if c := t.cells[pos]; c == 0 || arena[c-1].sum == sum {
			return pos, int32(c) - 1
		}
	}
}

// place files arena entry i, whose sum the table lacks, where its probe ends.
func (t *sumTable[E]) place(arena []summed[E], i int32) {
	pos, _ := t.find(arena, arena[i].sum)
	t.cells[pos] = uint32(i) + 1
}

// remove unfiles the entry holding sum, which the table has.
func (t *sumTable[E]) remove(arena []summed[E], sum uint64) {
	pos, _ := t.find(arena, sum)
	t.vacate(arena, pos)
}

// vacate empties slot pos, moving into the hole each later entry of its
// cluster whose home does not lie between the hole and it, so no probe stops
// short of its entry.
func (t *sumTable[E]) vacate(arena []summed[E], pos int) {
	mask := len(t.cells) - 1
	for next := (pos + 1) & mask; t.cells[next] != 0; next = (next + 1) & mask {
		if home := t.home(arena[t.cells[next]-1].sum); (next-home)&mask >= (next-pos)&mask {
			t.cells[pos], pos = t.cells[next], next
		}
	}
	t.cells[pos] = 0
}

// fit grows the table to twice arena's capacity, rounded up to a power of
// two and at least 8, refiling every entry, when the arena has outgrown it.
// Called as the arena grows, it grows the table at the same steps, never
// more often: the first 8 cells serve an arena's first 4 entries.
func (t *sumTable[E]) fit(arena []summed[E]) {
	size := max(8, 1<<bits.Len(uint(2*cap(arena)-1)))
	if size <= len(t.cells) {
		return
	}
	t.cells = make([]uint32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := range arena {
		t.place(arena, int32(i))
	}
}

// seenCache is a bounded LRU set of ID sums (IDSum) used for duplicate
// suppression. Bounding it is what makes long-running disseminators safe;
// ablation A2 measures the duplicate-delivery cost of undersizing it.
//
// An entry is its sum and two links in the arena, plus two 4-byte cells of
// the index: about 24 bytes in a full cache, and no ID string.
type seenCache struct {
	cap   int
	index sumTable[links]
	arena []summed[links]
	head  int32 // most recently used
	tail  int32 // least recently used
}

// links place a seen cache entry in the recency list.
type links struct {
	prev int32
	next int32
}

func newSeenCache(capacity int) seenCache {
	return seenCache{cap: capacity, head: noEntry, tail: noEntry}
}

// unlink detaches entry i from the recency list.
func (c *seenCache) unlink(i int32) {
	e := &c.arena[i].v
	if e.prev != noEntry {
		c.arena[e.prev].v.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noEntry {
		c.arena[e.next].v.prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (c *seenCache) pushFront(i int32) {
	e := &c.arena[i].v
	e.prev = noEntry
	e.next = c.head
	if c.head != noEntry {
		c.arena[c.head].v.prev = i
	}
	c.head = i
	if c.tail == noEntry {
		c.tail = i
	}
}

// Add inserts sum and reports whether it was not already present; a sum
// already present becomes the most recently used. At capacity the least
// recently used is evicted and its arena entry reused.
func (c *seenCache) Add(sum uint64) bool {
	if _, i := c.index.find(c.arena, sum); i != noEntry {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		return false
	}
	i := c.tail
	if len(c.arena) < c.cap {
		c.arena = roomForOne(c.arena, 4, c.cap)
		c.index.fit(c.arena)
		i = int32(len(c.arena))
		c.arena = append(c.arena, summed[links]{})
	} else {
		c.unlink(i)
		c.index.remove(c.arena, c.arena[i].sum)
	}
	c.arena[i].sum = sum
	c.index.place(c.arena, i)
	c.pushFront(i)
	return true
}

// roomForOne returns s with room for one more element, never past limit: an
// empty s gets room for first, a full one grows to 4 and then by doubling.
func roomForOne[T any](s []T, first, limit int) []T {
	if len(s) < cap(s) {
		return s
	}
	n := first
	if len(s) > 0 {
		n = max(4, 2*len(s))
	}
	return append(make([]T, 0, min(n, limit)), s...)
}

// Contains reports whether sum is present without refreshing recency.
func (c *seenCache) Contains(sum uint64) bool {
	_, i := c.index.find(c.arena, sum)
	return i != noEntry
}

// Len returns the number of cached sums.
func (c *seenCache) Len() int { return len(c.arena) }

// store retains recent values so a node can serve fetches and answer digests;
// its methods are the Machine's. It evicts in FIFO order and never reorders,
// so the values live in a ring of slots in insertion order — grown until it
// holds cap entries, overwritten oldest-first from then on — and index finds
// an ID's sum (IDSum) in the ring, whose slot never moves while the entry
// lives.
//
// The ring's first allocation holds one slot, and a second Hold grows it to
// 4, doubling from there (roomForOne); the index starts at 8 cells (32
// bytes), enough for 4 entries, and grows with the ring from 8. One slot is what every node of a one-event
// run needs, and the million-node coverage run is such a run: 4 slots there
// would be 144 bytes more per node, about 10 % of its peak RSS. A node that
// holds a second value pays one more allocation, the ring's, and one that
// holds a fifth, two. The seen cache's entries are a third of a slot's size, and its
// arena starts at 4.
//
// Each slot carries the sum it is held under: a digest names what its sender
// holds by those sums, and Missing compares them without hashing the store
// again.
type store[V any] struct {
	cap   int
	ring  []summed[V]
	head  int // slot of the oldest entry once the ring is full
	index sumTable[V]
}

func newStore[V any](capacity int) store[V] {
	return store[V]{cap: capacity}
}

// Hold keeps v, whose ID's sum is sum, to serve IWANTs and digests. The first
// Hold of a sum wins.
func (s *store[V]) Hold(sum uint64, v V) {
	if _, i := s.index.find(s.ring, sum); i != noEntry {
		return
	}
	slot := summed[V]{sum: sum, v: v}
	if len(s.ring) < s.cap {
		s.ring = roomForOne(s.ring, 1, s.cap)
		s.index.fit(s.ring)
		s.ring = append(s.ring, slot)
		s.index.place(s.ring, int32(len(s.ring)-1))
		return
	}
	s.index.remove(s.ring, s.ring[s.head].sum)
	s.ring[s.head] = slot
	s.index.place(s.ring, int32(s.head))
	s.head = (s.head + 1) % s.cap
}

// Evictee returns the value the next Hold of a sum not held overwrites — the
// oldest, once the store is full — so a binding can reuse its storage for
// the value it is about to hold. ok is false while the store is still
// growing. A Hold of a held sum overwrites nothing, so a caller asks Get
// first.
func (s *store[V]) Evictee() (v V, ok bool) {
	if len(s.ring) < s.cap {
		return v, false
	}
	return s.ring[s.head].v, true
}

// Get returns the value held under sum.
func (s *store[V]) Get(sum uint64) (v V, ok bool) {
	if _, i := s.index.find(s.ring, sum); i != noEntry {
		return s.ring[i].v, true
	}
	return v, false
}

// Len returns the number of held values.
func (s *store[V]) Len() int { return len(s.ring) }

// nth returns the k-th newest slot, 0 ≤ k < Len.
func (s *store[V]) nth(k int) *summed[V] {
	// head is 0 until the ring is full, so the newest entry is the slot
	// before head either way.
	n := len(s.ring)
	return &s.ring[(s.head-1-k+n)%n]
}

// DigestCap bounds the sums a digest lists: a node holding more lists its
// newest DigestCap and says the digest is truncated.
const DigestCap = 128

// Digest appends to dst what a digest lists — the sums of the newest held
// values, at most DigestCap, newest first, as big-endian bytes — and reports
// whether the store holds more than that.
func (s *store[V]) Digest(dst []byte) (sums []byte, truncated bool) {
	n := len(s.ring)
	for k := range min(n, DigestCap) {
		dst = binary.BigEndian.AppendUint64(dst, s.nth(k).sum)
	}
	return dst, n > DigestCap
}

// Rejections of a digest's sums are fixed values: a bad digest costs the
// responder nothing to refuse.
var (
	errSumsLength = errors.New("digest is not a whole number of 8-byte sums")
	errSumsCount  = errors.New("digest lists more than " + strconv.Itoa(DigestCap) + " sums")
)

// ParseSums reads raw, the big-endian sums a digest lists, into scratch: at
// most DigestCap of them, or an error.
func ParseSums(scratch *[DigestCap]uint64, raw []byte) ([]uint64, error) {
	if len(raw)%8 != 0 {
		return nil, errSumsLength
	}
	if len(raw)/8 > DigestCap {
		return nil, errSumsCount
	}
	sums := scratch[:len(raw)/8]
	for i := range sums {
		sums[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return sums, nil
}

// Missing answers a digest that lists sums, newest first: it appends to dst
// the held values whose ID's sum the digest does not list, newest first, at
// most max of them, and never more than DigestCap (a max ≤ 0 asks for that
// many). A truncated digest — its sender holds more than it lists
// — speaks only for what is newer than its oldest listed sum, so the walk
// stops at the slot holding that sum; a responder that holds no such slot
// takes every value as a candidate. Missing sorts sums in place and
// allocates nothing unless dst must grow.
func (s *store[V]) Missing(dst []V, sums []uint64, truncated bool, max int) []V {
	if max <= 0 || max > DigestCap {
		max = DigestCap
	}
	cut := truncated && len(sums) > 0
	var oldest uint64
	if cut {
		oldest = sums[len(sums)-1]
	}
	slices.Sort(sums)
	for k, found := 0, 0; k < len(s.ring) && found < max; k++ {
		slot := s.nth(k)
		if cut && slot.sum == oldest {
			break
		}
		if _, listed := slices.BinarySearch(sums, slot.sum); !listed {
			dst = append(dst, slot.v)
			found++
		}
	}
	return dst
}

// IDSum is the 64-bit FNV-1a sum of id: the one identity a node keys a
// notification by — in its seen cache, store, outstanding requests and
// counter-mongering counts — and what a digest lists for each held value. It
// is computed from the ID's bytes where they lie, so asking about a received
// ID builds nothing. Two IDs share a sum with probability about 2^-64: a
// digest of n sums mistakes one of a responder's m values for a listed one
// with probability about n·m·2^-64, and a receipt against a full seen cache of
// c sums is taken for a duplicate with probability about c·2^-64.
func IDSum[T string | []byte](id T) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h & sumMask
}

// sumMask narrows every IDSum. It is all ones; a test narrows it to make IDs
// collide and watch what a collision costs.
var sumMask = ^uint64(0)
