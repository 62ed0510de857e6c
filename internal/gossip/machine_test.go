package gossip

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// machineModel is the reference the property test holds a Machine to: an LRU
// list for the seen cache, a FIFO list for the store, the outstanding
// requests and the counter-mongering counts, all as plain slices and maps.
type machineModel struct {
	seenCap, storeCap, counterK int
	seen                        []string // most recently used first
	stored                      []string // oldest first
	outstanding                 map[string]bool
	counts                      map[string]int
}

func (m *machineModel) holds(id string) bool { return slices.Contains(m.seen, id) }

// touch refreshes a held ID, or admits a new one, evicting the least
// recently used beyond capacity.
func (m *machineModel) touch(id string) {
	if i := slices.Index(m.seen, id); i >= 0 {
		m.seen = slices.Delete(m.seen, i, i+1)
	}
	m.seen = slices.Insert(m.seen, 0, id)
	if len(m.seen) > m.seenCap {
		m.seen = m.seen[:m.seenCap]
	}
}

func (m *machineModel) hold(id string) {
	if slices.Contains(m.stored, id) {
		return
	}
	m.stored = append(m.stored, id)
	if len(m.stored) > m.storeCap {
		m.stored = m.stored[1:]
	}
}

// TestMachineProperties drives a Machine with small caches over a small ID
// alphabet through random first receipts, duplicates, IHAVEs, released
// fetches, IWANTs and digests under every style, checking each answer
// against machineModel:
//   - an ID is admitted (delivered) once while the seen cache holds it;
//   - nothing is forwarded or announced at hops ≤ 0, and every transfer
//     costs exactly one hop (counter mongering keeps the budget instead);
//   - Missing never returns an ID the digest lists, returns the newest first,
//     and returns at most max;
//   - a request is outstanding at most once until it is admitted or released;
//   - counter mongering stops after CounterK duplicates.
func TestMachineProperties(t *testing.T) {
	const (
		seenCap, storeCap, counterK = 6, 4, 3
		alphabet, steps             = 10, 4000
	)
	for _, style := range []Style{StylePush, StylePull, StylePushPull, StyleLazyPush, StyleFlood, StyleCounter} {
		t.Run(style.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(style) * 7919))
			m := NewMachine[Rumor](seenCap, storeCap, counterK)
			model := &machineModel{
				seenCap: seenCap, storeCap: storeCap, counterK: counterK,
				outstanding: map[string]bool{}, counts: map[string]int{},
			}
			for step := 0; step < steps; step++ {
				id := fmt.Sprintf("r%d", rng.Intn(alphabet))
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("step %d, %s: %s", step, id, fmt.Sprintf(format, args...))
				}
				switch op := rng.Intn(6); op {
				case 0, 1: // a receipt: first or duplicate
					hops, viaPull := rng.Intn(5)-1, rng.Intn(8) == 0
					known, t := m.Receive([]byte(id), viaPull)
					if known != model.holds(id) {
						fail("Receive = %v, model holds %v", known, model.holds(id))
					}
					if known {
						model.touch(id)
						checkDuplicate(t, model, id, viaPull, fail)
						continue
					}
					if first, _ := m.Admit(id); !first {
						fail("Admit of an ID the seen cache lacks reported a duplicate")
					}
					model.touch(id)
					delete(model.outstanding, id)
					m.Hold(Rumor{ID: id, Hops: hops})
					model.hold(id)
					checkSpread(m.Spread(id, style, hops, viaPull), model, style, id, hops, viaPull, fail)
				case 2: // a duplicate whose ID is already a string (Publish, Inject)
					if !model.holds(id) {
						continue
					}
					first, t := m.Admit(id)
					if first {
						fail("Admit of a held ID reported a first receipt")
					}
					model.touch(id)
					checkDuplicate(t, model, id, false, fail)
				case 3: // an IHAVE, and sometimes its IWANT refused
					owned, want, held := m.Want([]byte(id))
					if held != model.holds(id) || want != (!held && !model.outstanding[id]) {
						fail("Want = (%v, held %v), model holds %v, outstanding %v", want, held, model.holds(id), model.outstanding[id])
					}
					if want {
						if owned != id {
							fail("Want owned %q", owned)
						}
						model.outstanding[id] = true
						if rng.Intn(3) == 0 {
							m.Release(owned)
							delete(model.outstanding, id)
						}
					}
				case 4: // an IWANT served
					r, ok := m.Get([]byte(id))
					if ok != slices.Contains(model.stored, id) || (ok && r.ID != id) {
						fail("Get = %+v, %v; model stores %v", r, ok, model.stored)
					}
					if ok && r.Hops > 0 && ServedHops(r.Hops) != r.Hops-1 {
						fail("serving at %d hops costs %d", r.Hops, r.Hops-ServedHops(r.Hops))
					}
				case 5: // a digest
					var listed []string
					for k := rng.Intn(alphabet); k > 0; k-- {
						listed = append(listed, fmt.Sprintf("r%d", rng.Intn(alphabet+3)))
					}
					max := rng.Intn(storeCap + 2)
					for _, l := range listed {
						m.Listed([]byte(l))
					}
					var got, want []string
					for _, r := range m.Missing(max) {
						got = append(got, r.ID)
					}
					for i := len(model.stored) - 1; i >= 0 && len(want) < max; i-- {
						if !slices.Contains(listed, model.stored[i]) {
							want = append(want, model.stored[i])
						}
					}
					if !slices.Equal(got, want) {
						fail("Missing(%d) of %v listing %v = %v, want %v", max, model.stored, listed, got, want)
					}
				}
				if m.Len() != len(model.stored) {
					fail("Len = %d, model stores %d", m.Len(), len(model.stored))
				}
			}
		})
	}
}

// checkSpread holds a first receipt's decision to the hop rule and the style
// switch.
func checkSpread(t Transfer, model *machineModel, style Style, id string, hops int, viaPull bool, fail func(string, ...any)) {
	const fanout = 3
	switch {
	case viaPull || style == StylePull:
		if t.Send != SendNothing {
			fail("spread %v under %v (via pull %v)", t, style, viaPull)
		}
	case style == StyleCounter:
		model.counts[id] = 0
		if t.Send != SendPayload || t.Peers(fanout) != fanout || t.Hops(hops) != max(hops, 1) {
			fail("counter spread %+v at %d hops", t, hops)
		}
	case hops <= 0:
		if t.Send != SendNothing {
			fail("spread %+v at %d hops", t, hops)
		}
	default:
		want, peers := SendPayload, fanout
		switch style {
		case StyleLazyPush:
			want = SendAnnounce
		case StyleFlood:
			peers = -1
		}
		if t.Send != want || t.Peers(fanout) != peers || t.Hops(hops) != hops-1 {
			fail("%v spread %+v at %d hops", style, t, hops)
		}
	}
}

// checkDuplicate holds a duplicate's feedback to counter mongering: a rumor
// being mongered bursts, keeping its budget, on each of its first CounterK-1
// duplicates and goes quiescent on the CounterK-th.
func checkDuplicate(t Transfer, model *machineModel, id string, viaPull bool, fail func(string, ...any)) {
	count, active := model.counts[id]
	if viaPull || !active {
		if t.Send != SendNothing {
			fail("duplicate fed back %+v (active %v, via pull %v)", t, active, viaPull)
		}
		return
	}
	if count++; count >= model.counterK {
		delete(model.counts, id)
		if t.Send != SendNothing {
			fail("duplicate %d of a mongered rumor still bursts", count)
		}
		return
	}
	model.counts[id] = count
	if t.Send != SendPayload || t.Hops(0) != 1 || t.Hops(4) != 4 {
		fail("duplicate %d of a mongered rumor fed back %+v", count, t)
	}
}
