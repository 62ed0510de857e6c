package gossip

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wsgossip/internal/transport"
)

// machineModel is the reference the property test holds a Machine to: an LRU
// list for the seen cache, a FIFO list for the store, the outstanding
// requests and the counter-mongering counts, all as plain slices and maps
// keyed, as the machine is, by ID sums. delivered is the same seen cache
// read by ID: the IDs whose first receipt was delivered and whose sum the
// cache has held ever since.
type machineModel struct {
	seenCap, storeCap, counterK int
	seen                        []uint64       // most recently used first
	stored                      []uint64       // oldest first
	outstanding                 map[uint64]int // the round each request was made in
	round                       int
	counts                      map[uint64]int
	delivered                   map[string]bool
}

func (m *machineModel) holds(sum uint64) bool { return slices.Contains(m.seen, sum) }

// touch refreshes a held sum, or admits a new one, evicting the least
// recently used beyond capacity, and with it every ID delivered under it.
func (m *machineModel) touch(sum uint64) {
	if i := slices.Index(m.seen, sum); i >= 0 {
		m.seen = slices.Delete(m.seen, i, i+1)
	}
	m.seen = slices.Insert(m.seen, 0, sum)
	if len(m.seen) > m.seenCap {
		evicted := m.seen[m.seenCap]
		m.seen = m.seen[:m.seenCap]
		for id := range m.delivered {
			if IDSum(id) == evicted {
				delete(m.delivered, id)
			}
		}
	}
}

func (m *machineModel) hold(sum uint64) {
	if slices.Contains(m.stored, sum) {
		return
	}
	m.stored = append(m.stored, sum)
	if len(m.stored) > m.storeCap {
		m.stored = m.stored[1:]
	}
}

// TestMachineProperties drives a Machine with small caches over a small ID
// alphabet through random first receipts, duplicates, IHAVEs, released
// fetches, IWANTs and digests under every style, checking each answer
// against machineModel:
//   - an ID is delivered once while the seen cache holds its sum;
//   - nothing is forwarded or announced at hops ≤ 0, and every transfer
//     costs exactly one hop (counter mongering keeps the budget instead);
//   - Missing never returns a value whose sum the digest lists, returns the
//     newest first, returns at most max, and of a truncated digest returns
//     only what is newer than the oldest sum it lists, when that sum is held;
//   - a request is outstanding at most once until it is received or
//     released, and a round's end releases exactly the requests made before
//     the previous round's end;
//   - counter mongering stops after CounterK duplicates.
//
// It runs once more with sums narrowed to three bits, so that the ten IDs
// collide, and holds the machine to the failure mode a collision is allowed:
// an ID whose sum the seen cache holds for another ID is taken for a
// duplicate — a missed delivery, which must happen in the run — and no ID is
// ever delivered twice while its sum is held.
func TestMachineProperties(t *testing.T) {
	for _, style := range []Style{StylePush, StylePull, StylePushPull, StyleLazyPush, StyleFlood, StyleCounter} {
		t.Run(style.String(), func(t *testing.T) {
			if missed := runMachineModel(t, style); missed != 0 {
				t.Fatalf("%d first receipts missed without a collision", missed)
			}
		})
	}
	t.Run("colliding", func(t *testing.T) {
		defer func(mask uint64) { sumMask = mask }(sumMask)
		sumMask = 7
		for _, style := range []Style{StylePush, StyleLazyPush, StyleCounter} {
			t.Run(style.String(), func(t *testing.T) {
				if missed := runMachineModel(t, style); missed == 0 {
					t.Fatal("no first receipt collided with a held sum")
				}
			})
		}
	})
}

// runMachineModel is one TestMachineProperties run under style; it returns
// how many first receipts of an ID were taken for duplicates of another.
func runMachineModel(t *testing.T, style Style) (missed int) {
	const (
		seenCap, storeCap, counterK = 6, 4, 3
		alphabet, steps             = 10, 4000
	)
	rng := rand.New(rand.NewSource(int64(style) * 7919))
	m := NewMachine[Rumor](seenCap, storeCap, counterK)
	model := &machineModel{
		seenCap: seenCap, storeCap: storeCap, counterK: counterK,
		outstanding: map[uint64]int{}, counts: map[uint64]int{}, delivered: map[string]bool{},
	}
	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("r%d", rng.Intn(alphabet))
		sum := IDSum(id)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d, %s: %s", step, id, fmt.Sprintf(format, args...))
		}
		switch op := rng.Intn(7); op {
		case 0, 1, 2: // a receipt: first or duplicate, in a body or (Publish, Inject) owned
			hops, viaPull := rng.Intn(5)-1, op == 0 && rng.Intn(3) == 0
			held := model.holds(sum)
			first, t := m.Receive(sum, viaPull)
			if first && model.delivered[id] {
				fail("delivered twice while its sum is held")
			}
			if first == held {
				fail("Receive = first %v, model holds the sum %v", first, held)
			}
			model.touch(sum)
			if !first {
				if !model.delivered[id] {
					missed++
				}
				checkDuplicate(t, model, sum, viaPull, fail)
				continue
			}
			model.delivered[id] = true
			delete(model.outstanding, sum)
			m.Hold(sum, Rumor{ID: id, Hops: hops})
			model.hold(sum)
			checkSpread(m.Spread(sum, style, hops, viaPull), model, style, sum, hops, viaPull, fail)
		case 3: // an IHAVE, and sometimes its IWANT refused
			wanted, heldN, err := m.IHave([][]byte{[]byte(id)})
			want, held := len(wanted) == 1, heldN == 1
			_, pending := model.outstanding[sum]
			if err != nil {
				fail("IHave of one ID: %v", err)
			}
			if held != model.holds(sum) || want != (!held && !pending) {
				fail("Want = (%v, held %v), model holds %v, outstanding %v", want, held, model.holds(sum), pending)
			}
			if want {
				model.outstanding[sum] = model.round
				if rng.Intn(3) == 0 {
					m.Release(sum)
					delete(model.outstanding, sum)
				}
			}
		case 4: // an IWANT served
			r, ok := m.Get(sum)
			if ok != slices.Contains(model.stored, sum) || (ok && IDSum(r.ID) != sum) {
				fail("Get = %+v, %v; model stores %v", r, ok, model.stored)
			}
			if ok && r.Hops > 0 && ServedHops(r.Hops) != r.Hops-1 {
				fail("serving at %d hops costs %d", r.Hops, r.Hops-ServedHops(r.Hops))
			}
		case 6: // an announce round ends
			m.ReleaseStale()
			for sum, round := range model.outstanding {
				if round < model.round {
					delete(model.outstanding, sum)
				}
			}
			model.round++
			if m.r != nil && len(m.r.requested) != len(model.outstanding) {
				fail("%d requests outstanding after a round, model has %d", len(m.r.requested), len(model.outstanding))
			}
		case 5: // a digest
			var listed []uint64
			for k := rng.Intn(alphabet); k > 0; k-- {
				listed = append(listed, IDSum(fmt.Sprintf("r%d", rng.Intn(alphabet+3))))
			}
			max, truncated := rng.Intn(storeCap+2), rng.Intn(3) == 0
			var got, want []uint64
			for _, r := range m.Missing(nil, slices.Clone(listed), truncated, max) {
				got = append(got, IDSum(r.ID))
			}
			limit := max
			if limit <= 0 {
				limit = DigestCap // what a digest without its own bound is answered with
			}
			for i := len(model.stored) - 1; i >= 0 && len(want) < limit; i-- {
				if truncated && len(listed) > 0 && model.stored[i] == listed[len(listed)-1] {
					break // the truncated digest's oldest listed sum
				}
				if !slices.Contains(listed, model.stored[i]) {
					want = append(want, model.stored[i])
				}
			}
			if !slices.Equal(got, want) {
				fail("Missing(%d, truncated %v) of %v listing %v = %v, want %v", max, truncated, model.stored, listed, got, want)
			}
		}
		if m.Len() != len(model.stored) {
			fail("Len = %d, model stores %d", m.Len(), len(model.stored))
		}
	}
	return missed
}

// checkSpread holds a first receipt's decision to the hop rule and the style
// switch.
func checkSpread(t Transfer, model *machineModel, style Style, sum uint64, hops int, viaPull bool, fail func(string, ...any)) {
	const fanout = 3
	switch {
	case viaPull || style == StylePull:
		if t.Send != SendNothing {
			fail("spread %v under %v (via pull %v)", t, style, viaPull)
		}
	case style == StyleCounter:
		model.counts[sum] = 0
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
func checkDuplicate(t Transfer, model *machineModel, sum uint64, viaPull bool, fail func(string, ...any)) {
	count, active := model.counts[sum]
	if viaPull || !active {
		if t.Send != SendNothing {
			fail("duplicate fed back %+v (active %v, via pull %v)", t, active, viaPull)
		}
		return
	}
	if count++; count >= model.counterK {
		delete(model.counts, sum)
		if t.Send != SendNothing {
			fail("duplicate %d of a mongered rumor still bursts", count)
		}
		return
	}
	model.counts[sum] = count
	if t.Send != SendPayload || t.Hops(0) != 1 || t.Hops(4) != 4 {
		fail("duplicate %d of a mongered rumor fed back %+v", count, t)
	}
}

// pullTap is an endpoint that keeps a copy of every message sent to it and
// delivers nothing.
type pullTap struct{ sent []transport.Message }

func (e *pullTap) Addr() string                 { return "responder" }
func (e *pullTap) SetHandler(transport.Handler) {}
func (e *pullTap) Send(_ context.Context, msg transport.Message) error {
	msg.Body = bytes.Clone(msg.Body)
	e.sent = append(e.sent, msg)
	return nil
}

// TestPullRequestMatchesIDOracle: over random stores, evictions and digests
// (subsets, unknown IDs, duplicates, the empty digest, truncated or not), the
// engine's pull responder — which reads the listed sums and asks the one
// Missing — serves exactly what an ID-set oracle serves: the stored IDs
// newest first, minus the digest's, cut at pullBatch and, for a truncated
// digest, at its last listed ID. The SOAP
// binding's digests are held to the same oracle in
// core.TestDigestResponderMatchesAcrossSpellings, and the Machine's own
// truncation rule in TestMachineProperties.
func TestPullRequestMatchesIDOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		tap := &pullTap{}
		storeSize := 1 + rng.Intn(100)
		eng, err := New(Config{
			Style: StylePull, Fanout: 1, Hops: 3, Endpoint: tap, Peers: NewUniformPeers(nil),
			StoreSize: storeSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		var stored []string // oldest first, after eviction
		for i, n := 0, rng.Intn(160); i < n; i++ {
			id := fmt.Sprintf("t%d-r%d", trial, i)
			eng.Inject(ctx, Rumor{ID: id, Origin: "o", Hops: 2})
			stored = append(stored, id)
		}
		stored = stored[max(0, len(stored)-storeSize):]
		for round := 0; round < 3; round++ {
			var listed []string
			p := rng.Float64()
			for _, id := range stored {
				if rng.Float64() < p {
					listed = append(listed, id)
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				listed = append(listed, fmt.Sprintf("unknown-%d", rng.Int()))
			}
			if len(listed) > 0 && rng.Intn(2) == 0 {
				listed = append(listed, listed[rng.Intn(len(listed))])
			}
			rng.Shuffle(len(listed), func(i, j int) { listed[i], listed[j] = listed[j], listed[i] })
			truncated := rng.Intn(2) == 0
			var want []string
			for i := len(stored) - 1; i >= 0 && len(want) < pullBatch; i-- {
				if truncated && len(listed) > 0 && stored[i] == listed[len(listed)-1] {
					break
				}
				if !slices.Contains(listed, stored[i]) {
					want = append(want, stored[i])
				}
			}
			tap.sent = nil
			if err := eng.handlePullReq(ctx, transport.Message{From: "peer", Body: pullBody(truncated, listed...)}); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, msg := range tap.sent {
				rd, err := readWire(msg.Body, wireRumors)
				if err != nil || msg.Action != ActionPullResp || msg.To != "peer" {
					t.Fatalf("sent %s to %s: %v", msg.Action, msg.To, err)
				}
				for rd.n > 0 {
					v, _ := rd.rumor()
					got = append(got, string(v.id))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d (store %d of %d, %d listed, truncated %v):\n got %q\nwant %q",
					trial, round, len(stored), storeSize, len(listed), truncated, got, want)
			}
		}
	}
}

// TestEnginePullTruncatedDigestEndsTheStorm: two pull engines hold the same
// 300 rumors in the default store. The requester's digest lists its newest
// DigestCap and says it holds more, so the responder serves only what is
// newer than the oldest listed rumor: one pull round retransmits nothing,
// where an untruncated reading would serve pullBatch rumors the requester
// already holds. A rumor the requester lacks, newer than its oldest listed
// one, is still served.
func TestEnginePullTruncatedDigestEndsTheStorm(t *testing.T) {
	c := newCluster(t, 2, 38, func(_ int, cfg *Config) {
		cfg.Style = StylePull
		cfg.Fanout = 1
	})
	requester, responder := c.engines[0], c.engines[1]
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		r := Rumor{ID: fmt.Sprintf("r%03d", i), Origin: "o", Hops: 1}
		requester.Inject(ctx, r)
		responder.Inject(ctx, r)
	}
	requester.Tick(ctx)
	c.net.Run()
	if st := responder.Stats(); st.PullResps != 0 || requester.Stats().Duplicates != 0 {
		t.Fatalf("a pull round between equal stores retransmitted: responder %+v, requester %+v", st, requester.Stats())
	}
	responder.Inject(ctx, Rumor{ID: "fresh", Origin: "o", Hops: 1})
	requester.Tick(ctx)
	c.net.Run()
	if c.got[0]["fresh"] != 1 || requester.Stats().Duplicates != 0 || responder.Stats().PullResps != 1 {
		t.Fatalf("fresh delivered %d times, requester %+v, responder %+v", c.got[0]["fresh"], requester.Stats(), responder.Stats())
	}
}
