package gossip

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"wsgossip/internal/testkit"
	"wsgossip/internal/transport"
)

// tapEndpoint records a copy of the first body an engine sends under each
// action: the engine reuses its buffer once Send is back.
type tapEndpoint struct {
	transport.Endpoint
	bodies map[string][]byte
}

func (e *tapEndpoint) Send(ctx context.Context, msg transport.Message) error {
	if _, ok := e.bodies[msg.Action]; !ok {
		e.bodies[msg.Action] = bytes.Clone(msg.Body)
	}
	return e.Endpoint.Send(ctx, msg)
}

var wireActions = []string{ActionPush, ActionIHave, ActionIWant, ActionPullReq, ActionPullResp}

// capturedBodies runs a lazy-push and a pull cluster and returns one real
// body per wire action: push, IHAVE, IWANT, pull request, pull response.
func capturedBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	bodies := make(map[string][]byte)
	ctx := context.Background()
	for _, style := range []Style{StyleLazyPush, StylePull} {
		c := newCluster(tb, 8, 11, func(_ int, cfg *Config) {
			cfg.Style = style
			cfg.Endpoint = &tapEndpoint{Endpoint: cfg.Endpoint, bodies: bodies}
		})
		if _, err := c.engines[0].Publish(ctx, []byte("captured payload")); err != nil {
			tb.Fatal(err)
		}
		c.net.Run()
		c.tickAll(ctx, 3)
	}
	for _, action := range wireActions {
		if len(bodies[action]) == 0 {
			tb.Fatalf("no %s body captured", action)
		}
	}
	return bodies
}

// FuzzGossipWire holds the wire codec to its contract on arbitrary bytes: the
// reader never panics; it allocates nothing, whatever count or length the body
// claims and whether it accepts or rejects; what
// it accepts re-encodes to exactly the bytes it read and decodes again to the
// same value; and every handler agrees with it — a rejected body is an error
// that leaves the engine untouched, an accepted one is applied, except an
// IHAVE the machine refuses for listing more than DigestCap refs.
func FuzzGossipWire(f *testing.F) {
	captured := capturedBodies(f)
	for _, action := range wireActions {
		f.Add(captured[action])
	}
	push := captured[ActionPush]
	f.Add(push[:len(push)-3])                                                 // truncated
	f.Add(append(append([]byte(nil), push...), "junk"...))                    // trailing garbage
	f.Add([]byte{wireRumors, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // hostile count
	f.Add([]byte{wireRefs, 2, 0xff, 0xff, 0xff, 0x7f, 'x'})                   // hostile length
	f.Add([]byte{wireRefs, 0x81, 0x00, 1, 'x', 0})                            // overlong uvarint
	f.Add([]byte{})                                                           // empty body
	f.Add([]byte{wireRumors, 0})                                              // empty batch
	for _, bad := range badPullRequests() {
		f.Add(bad.body)
	}
	var many []RumorRef
	for i := range DigestCap + 1 {
		many = append(many, RumorRef{ID: fmt.Sprint("n", i), Hops: 2})
	}
	f.Add(encodeRefs(many...))                                                     // an IHAVE the machine refuses
	f.Add(encodeRefs(slices.Repeat([]RumorRef{{ID: "held-0", Hops: 1}}, 1000)...)) // one rumor asked for 1,000 times
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decodeWire(body)
		if !testkit.Race {
			read := func() { _, _ = readWire(body, wireRumors) }
			if len(body) > 0 && body[0] == wireRefs {
				read = func() { _, _ = readWire(body, wireRefs) }
			} else if len(body) > 0 && body[0] == wirePull {
				read = func() {
					var scratch [DigestCap]uint64
					_, _, _ = readPull(&scratch, body)
				}
			}
			if allocs := testing.AllocsPerRun(1, read); allocs > 0 {
				t.Fatalf("readWire allocated %.0f times on % x (err %v)", allocs, body, err)
			}
		}
		eng, handlers, kinds := wireHandlers(t, 1)
		msg := transport.Message{From: "peer", To: "a", Body: body}
		for name, h := range handlers {
			// The machine refuses an IHAVE of more than DigestCap refs.
			accepts := err == nil && body[0] == kinds[name] && !(name == "ihave" && len(m.Refs) > DigestCap)
			if herr := h(context.Background(), msg); (herr == nil) != accepts {
				t.Fatalf("%s returned %v on % x, decodeWire %v", name, herr, body, err)
			}
		}
		if err != nil {
			if st := eng.Stats(); st != (Stats{}) || eng.StoreLen() != 0 {
				t.Fatalf("rejected body % x changed the engine: %+v", body, st)
			}
			return
		}
		again := encodeWire(m)
		if !bytes.Equal(again, body) {
			t.Fatalf("accepted % x re-encodes to % x", body, again)
		}
		m2, err := decodeWire(again)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode(encode(m)) = %+v, %v; m = %+v", m2, err, m)
		}
	})
}

// badPullRequest is a malformed pull request and the fixed error that
// refuses it.
type badPullRequest struct {
	what string
	body []byte
	err  error
}

func badPullRequests() []badPullRequest {
	full := pullBody(false, "a", "b")
	return []badPullRequest{
		{"more than DigestCap sums", encodePull(make([]byte, 8*(DigestCap+1)), true), errSumsCount},
		{"length not a multiple of 8", encodePull(make([]byte, 12), false), errSumsLength},
		{"flag neither 0 nor 1", append([]byte{wirePull, 2}, full[2:]...), errWireFlag},
		{"trailing bytes", append(append([]byte(nil), full...), 0), errWireTrailing},
		{"sums cut short", full[:len(full)-1], errWireEntry},
		{"no flag", []byte{wirePull}, errWireFlag},
	}
}

// TestPullRequestRefusals: each malformed pull request is refused with its
// fixed error, and the engine sends nothing.
func TestPullRequestRefusals(t *testing.T) {
	tap := &pullTap{}
	eng, err := New(Config{Style: StylePull, Fanout: 1, Endpoint: tap, Peers: NewUniformPeers(nil)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(context.Background(), Rumor{ID: "held", Origin: "o", Hops: 1})
	for _, bad := range badPullRequests() {
		if err := eng.handlePullReq(context.Background(), transport.Message{From: "peer", Body: bad.body}); err != bad.err {
			t.Errorf("%s: got %v, want %v", bad.what, err, bad.err)
		}
	}
	if len(tap.sent) != 0 {
		t.Fatalf("refused pull requests were answered: %d sends", len(tap.sent))
	}
}
