package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wsgossip/internal/transport"
)

// TestAnnounceRoundLaws drives a machine through random schedules of queued
// announcements, announce rounds, IHAVEs, IWANTs, first receipts and
// released requests, and holds each round to the laws both bindings rely on:
//   - every queued announcement reaches exactly the prefix of its fan-out of
//     the draw it was made from — the round's one draw, or its group's when
//     that came up empty — once, and nothing else does;
//   - no IHAVE lists more than DigestCap, and a peer's IHAVEs list what goes
//     to it in queue order; peers that share an IHAVE are sent the same;
//   - a wanted sum is requested once per round: never while its request is
//     outstanding, and a round's end releases only requests a whole round old;
//   - an IWANT is answered with each held sum at most once, at most DigestCap
//     of them, in the order asked.
func TestAnnounceRoundLaws(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runRoundLaws(t, seed)
	}
}

// lawGroup is one interaction of the round law test: its static peers and
// the fan-out its announcements ask for.
type lawGroup struct {
	name    string
	targets []string
	fanout  int
}

func runRoundLaws(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMachine[Rumor](512, 256, 0) // its store outgrows an IWANT answer
	pool := make([]string, 0, 12)       // the live view, when there is one
	for i := range 12 {
		pool = append(pool, fmt.Sprint("live", i))
	}
	groups := []lawGroup{
		{"g0", []string{"a0", "a1", "a2", "a3", "s"}, 2},
		{"g1", []string{"b0", "b1", "s", "a0"}, 3},
		{"g2", []string{"c0"}, 1},
	}
	var (
		queued      []Announcement // since the last round, as queued
		outstanding = map[uint64]int{}
		round       int
		next        int // the next fresh rumor
	)
	// queue queues an announcement of a fresh rumor in a random group.
	queue := func(fail func(string, ...any)) {
		g := groups[rng.Intn(len(groups))]
		a := fmt.Sprint("q", next)
		next++
		hops := 1 + rng.Intn(4)
		if !m.Queue(Transfer{Send: SendAnnounce}, []byte(a), hops, g.fanout, g.name, g.targets) {
			fail("queue of %d refused", len(queued))
		}
		queued = append(queued, Announcement{ID: []byte(a), Group: g.name, Targets: g.targets, Hops: hops - 1, peers: g.fanout})
	}
	for step := range 600 {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		id := func() string { return fmt.Sprint("r", rng.Intn(next+1)) }
		switch op := rng.Intn(8); op {
		case 0, 1: // announcements queued, now and then more than an IHAVE lists
			n := 1 + rng.Intn(4)
			if rng.Intn(10) == 0 {
				n = DigestCap + rng.Intn(DigestCap)
			}
			for range n {
				queue(fail)
			}
		case 2: // a round, from the live view or, with none, per group
			live := rng.Intn(2) == 0
			drawn := map[string][]string{}
			draw := func(dst []string, a *Announcement, n int) []string {
				switch {
				case a == nil && live:
					dst = AppendSample(dst, rng, pool, n, "")
					drawn[""] = slices.Clone(dst)
				case a != nil:
					if _, again := drawn[a.Group]; again {
						fail("group %s drew twice", a.Group)
					}
					lo := len(dst)
					dst = AppendSample(dst, rng, a.Targets, n, "")
					drawn[a.Group] = slices.Clone(dst[lo:])
				}
				return dst
			}
			// While the round is out, more may be queued: they are the
			// next round's.
			var during []Announcement
			checkRound(m.AnnounceRound(draw, true), &m, queued, drawn, fail, func() {
				queued = nil
				for range rng.Intn(3) {
					queue(fail)
				}
				during = queued
			})
			queued = during
			for sum, made := range outstanding {
				if made < round {
					delete(outstanding, sum)
				}
			}
			round++
		case 3: // an IHAVE, with repeats, and sometimes its IWANT refused
			var ids [][]byte
			for range 1 + rng.Intn(6) {
				ids = append(ids, []byte(id()))
			}
			asked := slices.Clone(ids)
			wanted, held, err := m.IHave(ids)
			if err != nil {
				fail("IHave of %d: %v", len(asked), err)
			}
			var want []string
			wantHeld := 0
			for _, id := range asked {
				sum := IDSum(id)
				_, pending := outstanding[sum]
				switch {
				case m.Seen(sum):
					wantHeld++
				case !pending:
					outstanding[sum] = round
					want = append(want, string(id))
				}
			}
			if got := strs(wanted); !slices.Equal(got, want) || held != wantHeld {
				fail("IHave(%q) = %q, %d held; want %q, %d", strs(asked), got, held, want, wantHeld)
			}
			if len(wanted) > 0 && rng.Intn(4) == 0 {
				for _, id := range wanted {
					m.Release(IDSum(id))
					delete(outstanding, IDSum(id))
				}
			}
		case 4: // an IWANT, with repeats, sometimes of more than DigestCap
			var ids [][]byte
			for range 1 + rng.Intn(3*DigestCap) {
				ids = append(ids, []byte(id()))
			}
			got := m.IWant(nil, ids)
			var want []string
			for _, id := range ids {
				if _, held := m.Get(IDSum(id)); held && len(want) < DigestCap && !slices.Contains(want, string(id)) {
					want = append(want, string(id))
				}
			}
			var served []string
			for _, r := range got {
				served = append(served, r.ID)
			}
			if !slices.Equal(served, want) {
				fail("IWant served %d: %q\nwant %d: %q", len(served), served, len(want), want)
			}
		case 5, 6: // a first receipt, or a duplicate
			r := id()
			if first, _ := m.Receive(IDSum(r), false); first {
				m.Hold(IDSum(r), Rumor{ID: r})
				delete(outstanding, IDSum(r))
			}
			next++
		case 7: // nothing queued: a round only ends the request round
			if len(queued) == 0 {
				if r := m.AnnounceRound(nil, true); r != nil {
					fail("an empty queue made a round")
				}
				for sum, made := range outstanding {
					if made < round {
						delete(outstanding, sum)
					}
				}
				round++
			}
		}
		if m.r != nil && len(m.r.requested) != len(outstanding) {
			fail("%d requests outstanding, model has %d", len(m.r.requested), len(outstanding))
		}
	}
}

// checkRound holds one announce round to the round laws: queued is what was
// queued for it, and drawn the draws it made, "" for the whole round's.
// during runs while the round is out, before it is handed back.
func checkRound(r *Round, m *Machine[Rumor], queued []Announcement, drawn map[string][]string, fail func(string, ...any), during func()) {
	if r == nil {
		if len(queued) > 0 {
			fail("%d queued and no round", len(queued))
		}
		during()
		return
	}
	defer m.Done(r)
	defer during()
	want := map[string][]string{} // what each peer must be sent, in queue order
	for _, a := range queued {
		from, whole := drawn[""]
		if !whole || len(from) == 0 {
			from = drawn[a.Group]
		}
		for _, peer := range from[:min(a.peers, len(from))] {
			want[peer] = append(want[peer], fmt.Sprint(string(a.ID), "@", a.Hops))
		}
	}
	got := map[string][]string{}
	for peers, list := range r.IHaves {
		if len(list) > DigestCap {
			fail("an IHAVE lists %d", len(list))
		}
		var ids []string
		for _, a := range list {
			ids = append(ids, fmt.Sprint(string(a.ID), "@", a.Hops))
		}
		for _, peer := range peers {
			got[peer] = append(got[peer], ids...)
		}
	}
	if len(got) != len(want) {
		fail("the round went to %d peers, its draws to %d", len(got), len(want))
	}
	for peer, ids := range want {
		if !slices.Equal(got[peer], ids) {
			fail("%s was sent %d: %q\nwant %d: %q", peer, len(got[peer]), got[peer], len(ids), ids)
		}
	}
}

func strs(ids [][]byte) []string {
	var out []string
	for _, id := range ids {
		out = append(out, string(id))
	}
	return out
}

// TestIWantServesEachNotificationOnce: an IWANT that lists one held rumor
// 1,000 times is answered with that rumor once, and one that lists more held
// rumors than a digest lists is answered with DigestCap of them, in the order
// asked. One small request cannot make the holder send what it holds many
// times over.
func TestIWantServesEachNotificationOnce(t *testing.T) {
	ctx := context.Background()
	tap := &pullTap{}
	eng, err := New(Config{Style: StyleLazyPush, Fanout: 1, Hops: 3, Endpoint: tap, Peers: NewUniformPeers(nil)})
	if err != nil {
		t.Fatal(err)
	}
	var many []RumorRef
	for i := range DigestCap + 10 {
		r := Rumor{ID: fmt.Sprint("held-", i), Origin: "o", Hops: 2, Payload: []byte(strings.Repeat("p", 1000))}
		eng.Inject(ctx, r)
		many = append(many, RumorRef{ID: r.ID})
	}
	same := slices.Repeat([]RumorRef{{ID: "held-0", Hops: 1}}, 1000)
	for _, tc := range []struct {
		name string
		refs []RumorRef
		want []string
	}{
		{"one rumor 1,000 times", same, []string{"held-0"}},
		{"more than DigestCap", many, strs(idsOf(many[:DigestCap]))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tap.sent = nil
			before := eng.Stats().Forwarded
			if err := eng.handleIWant(ctx, transport.Message{From: "requester", Body: encodeRefs(tc.refs...)}); err != nil {
				t.Fatal(err)
			}
			if len(tap.sent) != 1 || tap.sent[0].To != "requester" {
				t.Fatalf("answered with %d messages", len(tap.sent))
			}
			m, err := decodeWire(tap.sent[0].Body)
			if err != nil {
				t.Fatal(err)
			}
			var served []string
			for _, r := range m.Rumors {
				served = append(served, r.ID)
			}
			if !slices.Equal(served, tc.want) || eng.Stats().Forwarded-before != int64(len(tc.want)) {
				t.Fatalf("served %d rumors in a %d-byte body, counted %d; want %d",
					len(served), len(tap.sent[0].Body), eng.Stats().Forwarded-before, len(tc.want))
			}
		})
	}
}

func idsOf(refs []RumorRef) [][]byte {
	var out [][]byte
	for _, ref := range refs {
		out = append(out, []byte(ref.ID))
	}
	return out
}

// TestHostileIHaveIsRefused: an IHAVE listing more than DigestCap rumors is
// refused before anything is requested: no IWANT leaves, and a later
// well-formed announcement of the same rumor still fetches it. (The SOAP
// binding's twin is core.TestHostileIHaveIsRefused.)
func TestHostileIHaveIsRefused(t *testing.T) {
	ctx := context.Background()
	tap := &pullTap{}
	eng, err := New(Config{Style: StyleLazyPush, Fanout: 1, Hops: 3, Endpoint: tap, Peers: NewUniformPeers(nil)})
	if err != nil {
		t.Fatal(err)
	}
	var refs []RumorRef
	for i := range DigestCap + 1 {
		refs = append(refs, RumorRef{ID: fmt.Sprint("n", i), Hops: 2})
	}
	if err := eng.handleIHave(ctx, transport.Message{From: "holder", Body: encodeRefs(refs...)}); !errors.Is(err, errIHaveLong) {
		t.Fatalf("an IHAVE of %d refs: %v, want refused", len(refs), err)
	}
	if len(tap.sent) != 0 || eng.Stats().IWantSent != 0 {
		t.Fatalf("%d IWANTs left", len(tap.sent))
	}
	if err := eng.handleIHave(ctx, transport.Message{From: "holder", Body: encodeRefs(refs[0])}); err != nil || len(tap.sent) != 1 {
		t.Fatalf("a well-formed announcement after the refusal: %v, %d IWANTs", err, len(tap.sent))
	}
}
