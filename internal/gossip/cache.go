package gossip

// Both bounded collections here used to ride on container/list, which costs
// one 48-byte heap node plus a pointer cell per entry. At simulation scales
// (10^5-10^6 engines, each with a seen cache and a rumor store) that
// overhead dominated per-node memory, so both are now slice-backed: the LRU
// is an intrusive doubly-linked list over a contiguous arena addressed by
// index, and the FIFO is a deque over a plain slice. Semantics are
// unchanged.

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

func newSeenCache(capacity int) *seenCache {
	// No size hint: a hint preallocates buckets up front, and at simulation
	// scale (10^5..10^6 engines, most of which ever see a handful of rumors)
	// even a modest hint per engine dominates resident memory. Incremental
	// map growth costs only amortized rehashing on the nodes that get busy.
	return &seenCache{
		cap:   capacity,
		items: make(map[string]int32),
		head:  noEntry,
		tail:  noEntry,
	}
}

// unlinkLocked detaches entry i from the recency list.
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
// refreshes its recency exactly as Add would. The lookup converts in place,
// so a duplicate — the common case in gossip — costs no string; an absent id
// is left for the caller to Add once it has built the string.
func (c *seenCache) TouchBytes(id []byte) bool {
	i, ok := c.items[string(id)]
	if ok && c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
	return ok
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

// rumorStore retains recent rumor bodies so the node can answer IWANT and
// pull requests. It evicts in FIFO order. Entries are never reordered, so
// the store is a deque: new rumors append at the end (newest), eviction
// advances start past the oldest, and the slice compacts when the dead
// prefix dominates. index maps an ID to its insertion number; base is the
// insertion number of slots[0].
//
// Each slot carries the pull responder's mark: the IDs a digest lists are
// marked with the current generation, which MissingFrom advances once per
// digest, so no mark is ever cleared and answering a digest builds no set.
type rumorStore struct {
	cap   int
	slots []storeSlot // insertion order; slots[start:] live, oldest first
	start int
	base  int
	index map[string]int
	gen   uint64
}

type storeSlot struct {
	r    Rumor
	held uint64 // generation of the last digest that listed r.ID
}

func newRumorStore(capacity int) *rumorStore {
	// Unhinted for the same reason as newSeenCache: per-engine resident
	// memory at large simulated populations.
	return &rumorStore{
		cap:   capacity,
		index: make(map[string]int),
	}
}

// Put stores r, replacing an existing entry with the same ID (keeping the
// higher hop budget so repair is as strong as the freshest copy).
func (s *rumorStore) Put(r Rumor) {
	if pos, ok := s.index[r.ID]; ok {
		if old := &s.slots[pos-s.base].r; r.Hops > old.Hops {
			*old = r
		}
		return
	}
	s.index[r.ID] = s.base + len(s.slots)
	s.slots = append(s.slots, storeSlot{r: r})
	for len(s.index) > s.cap {
		delete(s.index, s.slots[s.start].r.ID)
		s.slots[s.start] = storeSlot{} // release the strings and the payload
		s.start++
	}
	if s.start > len(s.slots)/2 && s.start > 64 {
		s.slots = append(s.slots[:0], s.slots[s.start:]...)
		s.base += s.start
		s.start = 0
	}
}

// Get returns the stored rumor by ID.
func (s *rumorStore) Get(id string) (Rumor, bool) {
	pos, ok := s.index[id]
	return s.at(pos, ok)
}

// GetBytes is Get for an ID still in a message buffer; it builds no string.
func (s *rumorStore) GetBytes(id []byte) (Rumor, bool) {
	pos, ok := s.index[string(id)]
	return s.at(pos, ok)
}

// at resolves an index lookup to the rumor it names.
func (s *rumorStore) at(pos int, ok bool) (Rumor, bool) {
	if !ok {
		return Rumor{}, false
	}
	return s.slots[pos-s.base].r, true
}

// Len returns the number of stored rumors.
func (s *rumorStore) Len() int { return len(s.index) }

// RecentRefs returns up to n references to the most recent rumors.
func (s *rumorStore) RecentRefs(n int) []RumorRef {
	if n <= 0 || n > len(s.index) {
		n = len(s.index)
	}
	refs := make([]RumorRef, 0, n)
	for i := len(s.slots) - 1; i >= s.start && len(refs) < n; i-- {
		r := &s.slots[i].r
		refs = append(refs, RumorRef{ID: r.ID, Hops: r.Hops})
	}
	return refs
}

// MissingFrom returns copies of the stored rumors the digest does not list,
// newest first, capped at limit. The digest's IDs are looked up as they lie
// in the message body and mark the slots they name; the walk then collects
// what stayed unmarked.
func (s *rumorStore) MissingFrom(digest wireReader, limit int) []Rumor {
	s.gen++
	for digest.n > 0 {
		ref, _ := digest.ref()
		if pos, ok := s.index[string(ref.id)]; ok {
			s.slots[pos-s.base].held = s.gen
		}
	}
	var out []Rumor
	for i := len(s.slots) - 1; i >= s.start && len(out) < limit; i-- {
		if s.slots[i].held != s.gen {
			out = append(out, s.slots[i].r)
		}
	}
	return out
}
