package membership

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// propPool is the address space of the property schedules: eight peers, the
// machine's own address and an empty one, which no view may hold.
var propPool = []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "self", ""}

// propWorld is the population a schedule's machine hears about: each peer's
// true heartbeat, which advances only while the peer runs.
type propWorld struct {
	rng     *rand.Rand
	truth   map[string]uint64
	running map[string]bool
}

// entries draws up to five entries as some peer's view lists them: a peer's
// true heartbeat or a stale echo of it, now and then self or an empty
// address, in random order.
func (w *propWorld) entries() []wireEntry {
	out := make([]wireEntry, 0, 5)
	for k := 1 + w.rng.Intn(5); k > 0; k-- {
		a := propPool[w.rng.Intn(len(propPool))]
		hb := w.truth[a]
		if back := uint64(w.rng.Intn(4)); back < hb {
			hb -= back
		}
		out = append(out, wireEntry{Addr: a, Heartbeat: hb})
	}
	return out
}

// exchangeBody is a view from from listing entries, in canonical form.
func exchangeBody(t *testing.T, from string, entries []wireEntry) []byte {
	t.Helper()
	body, _, err := canonicalBody(writeBody(envelopeBody{From: from, Members: entries}))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMembershipMachineProperties runs generated schedules against the
// machine: a join through random seeds, then ticks at advancing instants,
// exchanges (stale and fresh heartbeats, self-naming entries, more members
// than the cap), own and forged leaves, and suspicions, among peers that
// crash and recover. After every step it checks that
//
//   - while an address stays in the view, its heartbeat never decreases;
//   - the view never exceeds MaxView and never holds self or an empty
//     address;
//   - a member that left is never re-admitted;
//   - a member the view evicted is re-admitted only at a heartbeat above
//     the one it stalled at;
//   - a tick's outcome counts as evicted exactly the members it removed,
//     and as suspected exactly the ones it turned suspect;
//
// and, every few steps on an uncapped view, that merging the same exchanges
// at one instant in any order yields the same addresses, heartbeats and
// states.
func TestMembershipMachineProperties(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		maxView := []int{0, 2, 4}[seed%3]
		t.Run(fmt.Sprintf("seed%d/maxview%d", seed, maxView), func(t *testing.T) {
			runMachineProperties(t, seed, maxView)
		})
	}
}

func runMachineProperties(t *testing.T, seed int64, maxView int) {
	const steps = 300
	rng := rand.New(rand.NewSource(seed))
	w := &propWorld{rng: rng, truth: map[string]uint64{}, running: map[string]bool{}}
	for _, a := range propPool {
		w.truth[a], w.running[a] = 1, true
	}
	cfg := Config{SuspectAfter: 400 * time.Millisecond, RemoveAfter: time.Second, MaxView: maxView}
	m := newMachine(cfg, "self", rand.New(rand.NewSource(seed*31)))
	var now time.Duration
	held := map[string]uint64{}    // the view's heartbeats after the last step
	gone := map[string]bool{}      // addresses whose own leave was applied
	stalled := map[string]uint64{} // evicted addresses and the heartbeat they stalled at

	var seeds []string
	for _, a := range propPool {
		if rng.Intn(2) == 0 {
			seeds = append(seeds, a)
		}
	}
	m.join(seeds, now)
	step := 0
	// check holds the view to the laws after one input; ticked says whether
	// that input was a tick, whose removals are evictions.
	check := func(ticked bool) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
		}
		if maxView > 0 && len(m.members) > maxView {
			fail("view of %d exceeds MaxView %d", len(m.members), maxView)
		}
		for addr, mb := range m.members {
			hb, stayed := held[addr]
			at, evicted := stalled[addr]
			switch {
			case addr == "self" || addr == "":
				fail("view holds %q", addr)
			case gone[addr]:
				fail("%s re-admitted after its leave", addr)
			case stayed && mb.Heartbeat < hb:
				fail("%s heartbeat went back %d -> %d", addr, hb, mb.Heartbeat)
			case !stayed && evicted && mb.Heartbeat <= at:
				fail("%s re-admitted at %d, evicted stalled at %d", addr, mb.Heartbeat, at)
			case !stayed:
				delete(stalled, addr)
			}
		}
		for addr, hb := range held {
			if _, ok := m.members[addr]; !ok && ticked {
				stalled[addr] = hb
			}
		}
		clear(held)
		for addr, mb := range m.members {
			held[addr] = mb.Heartbeat
		}
	}
	check(false)
	// exchange merges entries from from and holds the machine to the
	// self-refutation law: shown its own address at a heartbeat above its
	// own, a node moves its heartbeat past that copy, so its propagated
	// heartbeat never looks stale to a peer that saw the copy.
	exchange := func(from string, entries []wireEntry) {
		t.Helper()
		before, shown := m.self.Heartbeat, uint64(0)
		for _, e := range entries {
			if e.Addr == m.self.Addr {
				shown = max(shown, e.Heartbeat)
			}
		}
		m.exchange(from, exchangeBody(t, from, entries), now)
		if shown > before && m.self.Heartbeat <= shown {
			t.Fatalf("step %d: shown its own heartbeat at %d, above its %d, the node's heartbeat is %d", step, shown, before, m.self.Heartbeat)
		}
	}
	for ; step < steps; step++ {
		for _, a := range propPool[:8] {
			switch {
			case w.running[a]:
				w.truth[a] += uint64(rng.Intn(2))
			case rng.Intn(40) == 0: // a crashed peer recovers, its heartbeat advanced
				w.running[a], w.truth[a] = true, w.truth[a]+5
			}
			if rng.Intn(60) == 0 {
				w.running[a] = false
			}
		}
		w.truth["self"] = m.self.Heartbeat + uint64(rng.Intn(3)) - 1

		switch op := rng.Intn(10); {
		case op < 3:
			now += time.Duration(rng.Intn(250)) * time.Millisecond
			before := make(map[string]bool, len(m.members)) // member → suspect
			for addr, mb := range m.members {
				before[addr] = mb.State == StateSuspect
			}
			o := m.tick(now)
			evicted, suspected := 0, 0
			for addr, wasSuspect := range before {
				if mb, ok := m.members[addr]; !ok {
					evicted++
				} else if !wasSuspect && mb.State == StateSuspect {
					suspected++
				}
			}
			if o.evicted != evicted || o.suspected != suspected {
				t.Fatalf("step %d: tick counted %d evicted and %d suspected; it removed %d and turned %d suspect",
					step, o.evicted, o.suspected, evicted, suspected)
			}
			check(true)
		case op < 7:
			from := propPool[rng.Intn(8)]
			if rng.Intn(10) == 0 {
				from = "self"
			}
			entries := w.entries()
			if maxView == 0 {
				exchange(from, entries)
				check(false)
				break
			}
			// A capped view may evict a member for one entry and re-admit it
			// for the next, so the view is checked entry by entry.
			for _, e := range entries {
				exchange(from, []wireEntry{e})
				check(false)
			}
		case op == 7:
			from, named := propPool[rng.Intn(8)], propPool[rng.Intn(8)]
			m.leave(from, exchangeBody(t, from, []wireEntry{{Addr: named, Heartbeat: w.truth[named]}}))
			if from == named {
				gone[from], w.running[from] = true, false
			}
			check(false)
		case op == 8:
			m.suspect(propPool[rng.Intn(len(propPool))])
			check(false)
		case maxView == 0:
			checkMergeOrder(t, m, w, now)
		}
	}
}

// checkMergeOrder merges the same few exchanges at now into two copies of
// m, in drawn order and shuffled, and fails unless the copies agree on
// every member's address, heartbeat and state, and on the own heartbeat.
func checkMergeOrder(t *testing.T, m *machine, w *propWorld, now time.Duration) {
	t.Helper()
	type exchange struct {
		from string
		body []byte
	}
	var xs []exchange
	for k := 2 + w.rng.Intn(4); k > 0; k-- {
		from := propPool[w.rng.Intn(8)]
		xs = append(xs, exchange{from, exchangeBody(t, from, w.entries())})
	}
	a, b := cloneMachine(m), cloneMachine(m)
	for _, x := range xs {
		a.exchange(x.from, x.body, now)
	}
	w.rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, x := range xs {
		b.exchange(x.from, x.body, now)
	}
	if !slices.Equal(a.snapshot(), b.snapshot()) || a.self != b.self {
		t.Fatalf("merge order changed the view:\n%+v %v\n%+v %v", a.snapshot(), a.self, b.snapshot(), b.self)
	}
}

// cloneMachine copies m's view, tombstones and evictions, sharing its RNG.
func cloneMachine(m *machine) *machine {
	c := *m
	c.members = make(map[string]*Member, len(m.members))
	for a, mb := range m.members {
		cp := *mb
		c.members[a] = &cp
	}
	c.left, c.dead = maps.Clone(m.left), maps.Clone(m.dead)
	c.alive, c.aliveValid, c.sorted = nil, false, nil
	return &c
}

// TestExchangeAnswersOnlyAdmittedSenders: two machines that hold each other
// as tombstones, or as evicted at a heartbeat the sender has not passed, and
// one exchange between them. A reply goes only to a sender the merge
// admitted, so the exchange draws no reply at all; were a sender the view
// cannot admit answered, each reply would be answered in turn without end.
func TestExchangeAnswersOnlyAdmittedSenders(t *testing.T) {
	cfg := Config{SuspectAfter: time.Second, RemoveAfter: 2 * time.Second}
	for _, tc := range []struct {
		name  string
		apart func(m *machine, other string)
	}{
		{"tombstoned", func(m *machine, other string) {
			m.leave(other, exchangeBody(t, other, []wireEntry{{Addr: other, Heartbeat: 1}}))
		}},
		{"evicted", func(m *machine, other string) {
			// A third party's echo lifted other past any heartbeat it has
			// reached, and other was then evicted there.
			m.exchange("c", exchangeBody(t, "c", []wireEntry{{Addr: other, Heartbeat: 100}}), 0)
			m.tick(cfg.RemoveAfter)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newMachine(cfg, "a", rand.New(rand.NewSource(1)))
			b := newMachine(cfg, "b", rand.New(rand.NewSource(2)))
			tc.apart(a, "b")
			tc.apart(b, "a")
			from, to, msg := a, b, a.view()
			replies := -1 // the first message is the exchange itself
			for ; msg != nil && replies < 10; replies++ {
				msg, _ = to.exchange(from.self.Addr, msg, cfg.RemoveAfter)
				from, to = to, from
			}
			if replies > 0 {
				t.Fatalf("one exchange drew %d replies between machines that hold each other apart, want none", replies)
			}
		})
	}
	// An honest first contact lists its sender, which the merge admits: it is
	// still answered.
	a := newMachine(cfg, "a", rand.New(rand.NewSource(1)))
	b := newMachine(cfg, "b", rand.New(rand.NewSource(2)))
	if reply, _ := b.exchange("a", a.view(), 0); reply == nil {
		t.Fatal("a newcomer's first exchange was not answered")
	}
}
