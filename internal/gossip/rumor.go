package gossip

import (
	"encoding/hex"
	"fmt"
	"math/rand"
)

// Style selects the dissemination strategy.
type Style int

// Supported gossip styles.
const (
	// StylePush forwards the full payload to f peers on first receipt
	// (the paper's WS-PushGossip).
	StylePush Style = iota + 1
	// StylePull spreads only through periodic anti-entropy exchanges:
	// each Tick a node asks f peers for rumors it has not seen.
	StylePull
	// StylePushPull combines eager push with periodic pull repair.
	StylePushPull
	// StyleLazyPush announces rumor IDs to f peers; peers fetch unseen
	// payloads, trading latency for payload traffic.
	StyleLazyPush
	// StyleFlood forwards to every known peer; the classic non-scalable
	// baseline.
	StyleFlood
	// StyleCounter is feedback-counter rumor mongering (Eugster et al.
	// 2004): a node keeps re-forwarding a rumor on every duplicate receipt
	// until it has heard it CounterK times, then goes quiescent. Termination
	// is adaptive instead of hop-bounded, so no (f, r) sizing is needed.
	StyleCounter
)

var styleNames = map[Style]string{
	StylePush:     "push",
	StylePull:     "pull",
	StylePushPull: "pushpull",
	StyleLazyPush: "lazypush",
	StyleFlood:    "flood",
	StyleCounter:  "counter",
}

// String returns the lowercase style name.
func (s Style) String() string {
	if n, ok := styleNames[s]; ok {
		return n
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// ParseStyle parses a style name as printed by String.
func ParseStyle(name string) (Style, error) {
	for s, n := range styleNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("gossip: unknown style %q", name)
}

// Rumor is one unit of disseminated information.
type Rumor struct {
	// ID uniquely identifies the rumor; duplicates are suppressed by ID.
	ID string
	// Origin is the address of the publishing node.
	Origin string
	// Hops is the remaining forwarding budget (the paper's rounds r,
	// decremented at each transfer; a rumor with Hops 0 is delivered but
	// not forwarded).
	Hops int
	// Payload is the application data.
	Payload []byte
}

// NewRumorID draws a 128-bit rumor identifier from rng. Taking the ID from
// the injected source keeps whole simulations reproducible.
func NewRumorID(rng *rand.Rand) string {
	var b [16]byte
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return hex.EncodeToString(b[:])
}

// Wire actions used by the engine. These become WS-Addressing action URIs in
// the SOAP binding and stay opaque strings in the simulator.
const (
	ActionPush     = "urn:wsgossip:gossip:push"
	ActionIHave    = "urn:wsgossip:gossip:ihave"
	ActionIWant    = "urn:wsgossip:gossip:iwant"
	ActionPullReq  = "urn:wsgossip:gossip:pullreq"
	ActionPullResp = "urn:wsgossip:gossip:pullresp"
)

// RumorRef names a rumor without its payload, with the forwarding budget it
// would be transferred at.
type RumorRef struct {
	ID   string
	Hops int
}
