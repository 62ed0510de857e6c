package probe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// propTargets are the peers a property schedule confirms and relays for.
var propTargets = []string{"t0", "t1", "t2", "t3"}

const (
	propTimeout = time.Second
	propK       = 2
)

// propRound is the model of one confirmation round the machine opened.
type propRound struct {
	target string
	due    time.Duration
	end    string // "" while open, then ResultAverted, ResultTimeout or "closed"
}

// propRelay is the model of one ping the machine relayed.
type propRelay struct {
	origin, target, nonce string
	due                   time.Duration
	reported              bool
}

// propModel is what a schedule has seen the machine do.
type propModel struct {
	t        *testing.T
	seed     int64
	step     int
	m        *machine
	now      time.Duration
	closed   bool
	rounds   map[string]*propRound // by nonce
	order    []string              // round nonces in opening order
	relays   map[string]*propRelay // by relay nonce
	degraded map[string]bool
}

func (p *propModel) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("seed %d step %d: %s", p.seed, p.step, fmt.Sprintf(format, args...))
}

// open returns target's open round in the model, if any.
func (p *propModel) open(target string) (string, *propRound) {
	for nonce, r := range p.rounds {
		if r.target == target && r.end == "" {
			return nonce, r
		}
	}
	return "", nil
}

// end ends the round nonce names with how, exactly once.
func (p *propModel) end(nonce, how string) {
	p.t.Helper()
	r := p.rounds[nonce]
	if r == nil {
		p.fatalf("round %q ended %s, but it never opened", nonce, how)
	}
	if r.end != "" {
		p.fatalf("round %q for %s ended %s after it ended %s", nonce, r.target, how, r.end)
	}
	r.end = how
}

// quiet fails on an outcome that asks for anything once the machine is closed.
func (p *propModel) quiet(o outcome, input string) {
	p.t.Helper()
	if p.closed && (len(o.sends) > 0 || len(o.targets) > 0) {
		p.fatalf("%s after close asked for %d sends and results for %v", input, len(o.sends), o.targets)
	}
}

// pick returns a nonce for a step to name: the current one, a stale one from
// all, or a forged one.
func (p *propModel) pick(rng *rand.Rand, current string, all []string) string {
	switch k := rng.Intn(4); {
	case k < 2 && current != "":
		return current
	case k < 3 && len(all) > 0:
		return all[rng.Intn(len(all))]
	}
	return fmt.Sprintf("forged#%d", rng.Intn(5))
}

// TestProbeMachineProperties runs generated schedules against the machine:
// confirmations with and without helpers, ping-reqs to relay, pings, the
// helpers' acks and the origins' reports with current, stale and forged
// nonces, degraded-mark clears, expiry at advancing instants, and close.
// After every step it checks that
//
//   - each opened round ends exactly once: averted, timed out or closed;
//   - at most one round is open per target;
//   - a relay reports back at most once, to its origin with its origin's
//     nonce;
//   - after expire(now), nothing due at or before now remains;
//   - after close, no outcome asks for a send or a callback;
//   - a target is degraded exactly when its last resolution was averted and
//     no clearDegraded followed.
func TestProbeMachineProperties(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &propModel{t: t, seed: seed, m: newMachine("self", propK, propTimeout),
			rounds: map[string]*propRound{}, relays: map[string]*propRelay{}, degraded: map[string]bool{}}
		var roundNonces, relayNonces []string
		for p.step = 0; p.step < 300; p.step++ {
			target := propTargets[rng.Intn(len(propTargets))]
			switch k := rng.Intn(20); {
			case k < 4:
				openNonce, _ := p.open(target)
				var drawn, eligible []string
				called := false
				o := p.m.confirm(target, func() []string {
					called = true
					for _, c := range []string{"h0", "self", target, "h1", "h2"} {
						if rng.Intn(2) == 0 {
							drawn = append(drawn, c)
							if c != "self" && c != target && len(eligible) < propK {
								eligible = append(eligible, c)
							}
						}
					}
					return slices.Clone(drawn)
				}, p.now)
				p.quiet(o, "confirm")
				if called && (openNonce != "" || p.closed) {
					p.fatalf("confirm drew helpers with a round open for %s or the machine closed", target)
				}
				switch {
				case len(o.sends) > 0:
					nonce := o.sends[0].body.(pingReqBody).Nonce
					if openNonce != "" || p.rounds[nonce] != nil {
						p.fatalf("confirm opened round %q for %s with round %q open", nonce, target, openNonce)
					}
					for i, s := range o.sends {
						if b := s.body.(pingReqBody); s.action != ActionPingReq || b.Nonce != nonce || b.Target != target || b.Origin != "self" ||
							len(o.sends) != len(eligible) || s.to != eligible[i] {
							p.fatalf("confirm of %s drawing %v sent %+v, want a ping-req to each of %v", target, drawn, o.sends, eligible)
						}
					}
					p.rounds[nonce] = &propRound{target: target, due: p.now + propTimeout}
					p.order = append(p.order, nonce)
					roundNonces = append(roundNonces, nonce)
				case len(o.targets) > 0:
					if !called || len(eligible) > 0 || o.result != ResultNoHelpers || len(o.targets) != 1 || o.targets[0] != target {
						p.fatalf("confirm of %s conceded %v as %s", target, o.targets, o.result)
					}
					p.degraded[target] = false
				case openNonce == "" && !p.closed:
					p.fatalf("confirm of %s with no round open did nothing", target)
				}
			case k < 7:
				o := p.m.pingReq(pingReqBody{Origin: "o" + target, Target: target, Nonce: "o#" + target}, p.now)
				p.quiet(o, "pingReq")
				if !p.closed {
					if len(o.sends) != 1 || o.sends[0].action != ActionPing || o.sends[0].to != target {
						p.fatalf("pingReq sent %+v, want one ping to %s", o.sends, target)
					}
					nonce := o.sends[0].body.(pingBody).Nonce
					if p.relays[nonce] != nil || p.rounds[nonce] != nil {
						p.fatalf("relay nonce %q reused", nonce)
					}
					p.relays[nonce] = &propRelay{origin: "o" + target, target: target, nonce: "o#" + target, due: p.now + propTimeout}
					relayNonces = append(relayNonces, nonce)
				}
			case k < 8:
				o := p.m.ping(pingBody{From: "o", Nonce: "n"})
				p.quiet(o, "ping")
				if !p.closed && (len(o.sends) != 1 || o.sends[0].action != ActionPingAck || o.sends[0].to != "o") {
					p.fatalf("ping answered %+v", o.sends)
				}
			case k < 11:
				current := ""
				if len(relayNonces) > 0 {
					current = relayNonces[len(relayNonces)-1]
				}
				nonce := p.pick(rng, current, relayNonces)
				o := p.m.pingAck(pingAckBody{From: target, Nonce: nonce})
				p.quiet(o, "pingAck")
				r := p.relays[nonce]
				live := r != nil && !r.reported && r.due > p.now && !p.closed
				if len(o.sends) > 0 {
					if !live {
						p.fatalf("pingAck %q reported back for a relay that is not open (%+v)", nonce, r)
					}
					b := o.sends[0].body.(pingReqAckBody)
					if len(o.sends) != 1 || o.sends[0].to != r.origin || b.Nonce != r.nonce || b.Target != r.target {
						p.fatalf("relay %q reported %+v, want one report to %s with nonce %s", nonce, o.sends, r.origin, r.nonce)
					}
					r.reported = true
				} else if live {
					p.fatalf("pingAck %q for an open relay reported nothing", nonce)
				}
			case k < 15:
				current, _ := p.open(target)
				nonce := p.pick(rng, current, roundNonces)
				o := p.m.pingReqAck(pingReqAckBody{From: "h0", Target: target, Nonce: nonce})
				p.quiet(o, "pingReqAck")
				if len(o.targets) > 0 {
					if current == "" || nonce != current || o.result != ResultAverted || len(o.targets) != 1 || o.targets[0] != target {
						p.fatalf("report %q for %s averted %v (%s); open round %q", nonce, target, o.targets, o.result, current)
					}
					p.end(nonce, ResultAverted)
					p.degraded[target] = true
				} else if current != "" && nonce == current {
					p.fatalf("report with the open round's nonce %q did not avert it", nonce)
				}
			case k < 16:
				p.m.clearDegraded(target)
				p.degraded[target] = false
			case k < 19:
				p.now += time.Duration(rng.Int63n(int64(700 * time.Millisecond)))
				o := p.m.expire(p.now)
				p.quiet(o, "expire")
				if len(o.targets) > 0 && o.result != ResultTimeout {
					p.fatalf("expire resolved %v as %s", o.targets, o.result)
				}
				var want []string
				for _, nonce := range p.order {
					if r := p.rounds[nonce]; r.end == "" && r.due <= p.now {
						want = append(want, r.target)
						p.end(nonce, ResultTimeout)
						p.degraded[r.target] = false
					}
				}
				if fmt.Sprint(o.targets) != fmt.Sprint(want) {
					p.fatalf("expire at %v timed out %v, want %v in opening order", p.now, o.targets, want)
				}
				for _, e := range p.m.queue {
					if e.due <= p.now {
						p.fatalf("after expire at %v, %+v is still queued", p.now, e)
					}
				}
				for nonce, r := range p.relays {
					if _, held := p.m.relays[nonce]; held && r.due <= p.now {
						p.fatalf("after expire at %v, relay %q due %v is still held", p.now, nonce, r.due)
					}
				}
			default:
				if rng.Intn(4) == 0 {
					p.close()
				}
			}
			p.check()
		}
		p.close()
		for nonce, r := range p.rounds {
			if r.end == "" {
				p.fatalf("round %q for %s never ended", nonce, r.target)
			}
		}
	}
}

// close closes the machine, ending every open round as closed.
func (p *propModel) close() {
	p.m.close()
	for nonce, r := range p.rounds {
		if r.end == "" {
			p.end(nonce, "closed")
		}
	}
	p.closed = true
}

// check compares the machine's open rounds and degraded marks with the model.
func (p *propModel) check() {
	p.t.Helper()
	open := 0
	for nonce, r := range p.rounds {
		if r.end == "" {
			open++
			if got := p.m.rounds[r.target]; got != nonce {
				p.fatalf("round %q for %s is open, the machine holds %q", nonce, r.target, got)
			}
		}
	}
	if len(p.m.rounds) != open {
		p.fatalf("machine holds %d open rounds, the model %d", len(p.m.rounds), open)
	}
	for _, target := range propTargets {
		if p.m.degraded[target] != p.degraded[target] {
			p.fatalf("%s degraded = %v, want %v", target, p.m.degraded[target], p.degraded[target])
		}
	}
	// The timer the binding arms at due is never late: due is no later than
	// any open round's or live relay's own due instant.
	at, ok := p.m.due()
	for _, r := range p.rounds {
		if r.end == "" && (!ok || at > r.due) {
			p.fatalf("due = %v, %v, but a round for %s falls due at %v", at, ok, r.target, r.due)
		}
	}
	for nonce, r := range p.relays {
		if _, held := p.m.relays[nonce]; held && (!ok || at > r.due) {
			p.fatalf("due = %v, %v, but relay %q falls due at %v", at, ok, nonce, r.due)
		}
	}
}
