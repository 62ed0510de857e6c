package gossip

import (
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
)

// The Machine's two bounded collections. Neither keeps a per-entry heap cell:
// at simulation scales (10^5-10^6 engines, each with a seen cache and a
// store) those dominated per-node memory. The LRU is an intrusive
// doubly-linked list over a contiguous arena addressed by index, and the FIFO
// store is a ring of slots.

const noEntry = int32(-1)

// seenCache is a bounded LRU set of rumor IDs used for duplicate
// suppression. Bounding it is what makes long-running disseminators safe;
// ablation A2 measures the duplicate-delivery cost of undersizing it.
type seenCache struct {
	cap   int
	items map[string]int32 // id -> arena index
	arena []seenEntry
	free  []int32
	head  int32 // most recently used
	tail  int32 // least recently used
}

type seenEntry struct {
	id   string
	prev int32
	next int32
}

func newSeenCache(capacity int) seenCache {
	// No size hint: a hint preallocates buckets up front, and at simulation
	// scale (10^5..10^6 engines, most of which ever see a handful of rumors)
	// even a modest hint per engine dominates resident memory. Incremental
	// map growth costs only amortized rehashing on the nodes that get busy.
	return seenCache{
		cap:   capacity,
		items: make(map[string]int32),
		head:  noEntry,
		tail:  noEntry,
	}
}

// unlink detaches entry i from the recency list.
func (c *seenCache) unlink(i int32) {
	e := &c.arena[i]
	if e.prev != noEntry {
		c.arena[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noEntry {
		c.arena[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (c *seenCache) pushFront(i int32) {
	e := &c.arena[i]
	e.prev = noEntry
	e.next = c.head
	if c.head != noEntry {
		c.arena[c.head].prev = i
	}
	c.head = i
	if c.tail == noEntry {
		c.tail = i
	}
}

// Add inserts id and reports whether it was not already present.
func (c *seenCache) Add(id string) bool {
	if i, ok := c.items[id]; ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		return false
	}
	c.insert(id)
	return true
}

// insert adds an id the caller knows to be absent (Add, or a TouchBytes that
// just reported false), evicting the least recently used beyond capacity.
func (c *seenCache) insert(id string) {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
		c.arena[i] = seenEntry{id: id}
	} else {
		i = int32(len(c.arena))
		c.arena = append(c.arena, seenEntry{id: id})
	}
	c.items[id] = i
	c.pushFront(i)
	for len(c.items) > c.cap {
		oldest := c.tail
		c.unlink(oldest)
		delete(c.items, c.arena[oldest].id)
		c.arena[oldest].id = "" // release the string
		c.free = append(c.free, oldest)
	}
}

// TouchBytes is the duplicate half of Add for an identifier still sitting
// in a message buffer: it reports whether id is present and, if so,
// refreshes its recency exactly as Add would and returns the string the
// cache holds it under. The lookup converts in place, so a duplicate — the
// common case in gossip — costs no string; an absent id is left for the
// caller to Add once it has built the string.
func (c *seenCache) TouchBytes(id []byte) (key string, ok bool) {
	i, ok := c.items[string(id)]
	if !ok {
		return "", false
	}
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
	return c.arena[i].id, true
}

// Contains reports whether id is present without refreshing recency.
func (c *seenCache) Contains(id string) bool {
	_, ok := c.items[id]
	return ok
}

// ContainsBytes is Contains for an id still in a message buffer.
func (c *seenCache) ContainsBytes(id []byte) bool {
	_, ok := c.items[string(id)]
	return ok
}

// Len returns the number of cached IDs.
func (c *seenCache) Len() int { return len(c.items) }

// Held is what a Machine's store holds: a value that names the ID it is held
// under, so the slot need not carry the ID a second time. The engine holds a
// Rumor; a SOAP disseminator holds its retained envelope clone.
type Held interface {
	HeldID() string
}

// HeldID returns the rumor's ID: a stored Rumor is held under it.
func (r Rumor) HeldID() string { return r.ID }

// store retains recent values so a node can serve fetches and answer digests;
// its methods are the Machine's. It evicts in FIFO order and never reorders,
// so the values live in a ring of slots in insertion order — grown by append
// until it holds cap entries, overwritten oldest-first from then on — and
// index maps an ID to its slot, which never moves while the entry lives.
//
// Each slot carries its ID's sum (IDSum), taken once when the value is held:
// a digest names what its sender holds by those sums, and Missing compares
// them without hashing the store again.
type store[V Held] struct {
	cap   int
	slots []storeSlot[V]
	head  int // slot of the oldest entry once the ring is full
	index map[string]uint32
}

// storeSlot is one retained value and its ID's sum.
type storeSlot[V Held] struct {
	v   V
	sum uint64
}

func newStore[V Held](capacity int) store[V] {
	// Unhinted for the same reason as newSeenCache: per-node resident memory
	// at large simulated populations.
	return store[V]{cap: capacity, index: make(map[string]uint32)}
}

// Hold keeps v to serve IWANTs and digests. The first Hold of an ID wins.
func (s *store[V]) Hold(v V) {
	id := v.HeldID()
	if _, ok := s.index[id]; ok {
		return
	}
	slot := storeSlot[V]{v: v, sum: IDSum(id)}
	if len(s.slots) < s.cap {
		s.index[id] = uint32(len(s.slots))
		s.slots = append(s.slots, slot)
		return
	}
	delete(s.index, s.slots[s.head].v.HeldID())
	s.index[id] = uint32(s.head)
	s.slots[s.head] = slot
	s.head = (s.head + 1) % s.cap
}

// Get returns the value held for id — a view of a message buffer will do:
// the lookup converts in place.
func (s *store[V]) Get(id []byte) (v V, ok bool) {
	if i, ok := s.index[string(id)]; ok {
		return s.slots[i].v, true
	}
	return v, false
}

// Len returns the number of held values.
func (s *store[V]) Len() int { return len(s.slots) }

// nth returns the k-th newest slot, 0 ≤ k < Len.
func (s *store[V]) nth(k int) *storeSlot[V] {
	// head is 0 until the ring is full, so the newest entry is the slot
	// before head either way.
	n := len(s.slots)
	return &s.slots[(s.head-1-k+n)%n]
}

// DigestCap bounds the sums a digest lists: a node holding more lists its
// newest DigestCap and says the digest is truncated.
const DigestCap = 128

// Digest appends to dst what a digest lists — the sums of the newest held
// values, at most DigestCap, newest first, as big-endian bytes — and reports
// whether the store holds more than that.
func (s *store[V]) Digest(dst []byte) (sums []byte, truncated bool) {
	n := len(s.slots)
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

// Missing answers a digest that lists sums, newest first: the held values
// whose ID's sum it does not list, newest first, at most max of them. A
// truncated digest — its sender holds more than it lists — speaks only for
// what is newer than its oldest listed sum, so the walk stops at the slot
// holding that sum; a responder that holds no such slot takes every value as
// a candidate. Missing sorts sums in place and allocates nothing unless
// something is missing.
func (s *store[V]) Missing(sums []uint64, truncated bool, max int) []V {
	cut := truncated && len(sums) > 0
	var oldest uint64
	if cut {
		oldest = sums[len(sums)-1]
	}
	slices.Sort(sums)
	var out []V
	for k := 0; k < len(s.slots) && len(out) < max; k++ {
		slot := s.nth(k)
		if cut && slot.sum == oldest {
			break
		}
		if _, listed := slices.BinarySearch(sums, slot.sum); !listed {
			out = append(out, slot.v)
		}
	}
	return out
}

// IDSum is the 64-bit FNV-1a sum of id: what a digest lists for each held
// value in place of its ID. Two IDs share a sum with probability about
// 2^-64, so a digest of n sums mistakes one of a responder's m values for a
// listed one with probability about n·m·2^-64.
func IDSum[T string | []byte](id T) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}
