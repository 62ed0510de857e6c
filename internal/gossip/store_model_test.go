package gossip

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// filed counts the entries the table indexes.
func (t *sumTable[E]) filed() int {
	n := 0
	for _, c := range t.cells {
		if c != 0 {
			n++
		}
	}
	return n
}

// storeModel is the store as a map and a list: a FIFO of sums, oldest first,
// in which the first Hold of a sum wins.
type storeModel struct {
	cap   int
	order []uint64
	vals  map[uint64]int
}

func (m *storeModel) hold(sum uint64, v int) {
	if _, ok := m.vals[sum]; ok {
		return
	}
	if len(m.order) == m.cap {
		delete(m.vals, m.order[0])
		m.order = m.order[1:]
	}
	m.order = append(m.order, sum)
	m.vals[sum] = v
}

func (m *storeModel) evictee() (int, bool) {
	if len(m.order) < m.cap {
		return 0, false
	}
	return m.vals[m.order[0]], true
}

// newest returns the held sums, newest first.
func (m *storeModel) newest() []uint64 {
	s := slices.Clone(m.order)
	slices.Reverse(s)
	return s
}

func (m *storeModel) digest() ([]uint64, bool) {
	s := m.newest()
	return s[:min(len(s), DigestCap)], len(s) > DigestCap
}

func (m *storeModel) missing(sums []uint64, truncated bool, max int) []int {
	listed := map[uint64]bool{}
	for _, sum := range sums {
		listed[sum] = true
	}
	var out []int
	for _, sum := range m.newest() {
		if len(out) == max || truncated && len(sums) > 0 && sum == sums[len(sums)-1] {
			break
		}
		if !listed[sum] {
			out = append(out, m.vals[sum])
		}
	}
	return out
}

// TestStoreMatchesModel runs random Hold, Get, Evictee, Digest and Missing
// sequences against the model, at capacities from one slot to a ring whose
// index probes long clusters, and once more with sums narrowed to collide:
// every read must agree, and the index must file exactly what the ring holds.
func TestStoreMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) { runStoreModel(t, capacity) })
	}
	t.Run("colliding", func(t *testing.T) {
		defer func(mask uint64) { sumMask = mask }(sumMask)
		for _, capacity := range []int{1, 4, 64, 1024} {
			sumMask = uint64(2*capacity - 1)
			t.Run(fmt.Sprint(capacity), func(t *testing.T) { runStoreModel(t, capacity) })
		}
	})
}

func runStoreModel(t *testing.T, capacity int) {
	rng := rand.New(rand.NewSource(int64(capacity)))
	s := newStore[int](capacity)
	m := storeModel{cap: capacity, vals: map[uint64]int{}}
	// IDs come from a pool of three per slot: most Holds are new, some repeat.
	id := func() uint64 { return IDSum(fmt.Sprintf("r%d", rng.Intn(3*capacity))) }
	for step := range 20*capacity + 2000 {
		switch op := rng.Intn(10); {
		case op < 5:
			sum := id()
			s.Hold(sum, step)
			m.hold(sum, step)
		case op < 7:
			sum := id()
			got, ok := s.Get(sum)
			want, wantOK := m.vals[sum]
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Get(%x) = %d, %v; model %d, %v", step, sum, got, ok, want, wantOK)
			}
		case op < 8:
			got, ok := s.Evictee()
			want, wantOK := m.evictee()
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Evictee = %d, %v; model %d, %v", step, got, ok, want, wantOK)
			}
		case op < 9:
			raw, truncated := s.Digest(nil)
			var scratch [DigestCap]uint64
			got, err := ParseSums(&scratch, raw)
			if err != nil {
				t.Fatalf("step %d: digest: %v", step, err)
			}
			want, wantTrunc := m.digest()
			if !slices.Equal(got, want) || truncated != wantTrunc {
				t.Fatalf("step %d: Digest = %x, %v; model %x, %v", step, got, truncated, want, wantTrunc)
			}
		default:
			// A digest of some of what the store holds, newest first, and
			// sometimes a sum it does not hold as its oldest.
			var sums []uint64
			for _, sum := range m.newest() {
				if rng.Intn(3) > 0 {
					sums = append(sums, sum)
				}
			}
			if rng.Intn(4) == 0 {
				sums = append(sums, id())
			}
			truncated, max := rng.Intn(2) == 0, 1+rng.Intn(2*capacity)
			want := m.missing(sums, truncated, min(max, DigestCap)) // no answer serves more
			got := s.Missing(nil, slices.Clone(sums), truncated, max)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Missing(%x, %v, %d) = %v; model %v", step, sums, truncated, max, got, want)
			}
		}
		if s.Len() != len(m.order) || s.index.filed() != len(m.order) {
			t.Fatalf("step %d: store holds %d and files %d; model %d", step, s.Len(), s.index.filed(), len(m.order))
		}
	}
	for sum, want := range m.vals {
		if got, ok := s.Get(sum); !ok || got != want {
			t.Fatalf("Get(%x) = %d, %v at the end; model %d", sum, got, ok, want)
		}
	}
}
