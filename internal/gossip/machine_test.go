package gossip

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wsgossip/internal/transport"
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
//     returns at most max, and of a truncated digest returns only what is
//     newer than the oldest ID it lists, when that ID is held;
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
					max, truncated := rng.Intn(storeCap+2), rng.Intn(3) == 0
					sums := make([]uint64, len(listed))
					for i, l := range listed {
						sums[i] = IDSum(l)
					}
					var got, want []string
					for _, r := range m.Missing(sums, truncated, max) {
						got = append(got, r.ID)
					}
					for i := len(model.stored) - 1; i >= 0 && len(want) < max; i-- {
						if truncated && len(listed) > 0 && model.stored[i] == listed[len(listed)-1] {
							break // the truncated digest's oldest listed ID
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

// pullTap is an endpoint that keeps every body sent to it and delivers
// nothing.
type pullTap struct{ sent []transport.Message }

func (e *pullTap) Addr() string                 { return "responder" }
func (e *pullTap) SetHandler(transport.Handler) {}
func (e *pullTap) Send(_ context.Context, msg transport.Message) error {
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
