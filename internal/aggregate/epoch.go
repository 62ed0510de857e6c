package aggregate

import (
	"encoding/xml"
	"time"

	"wsgossip/internal/core"
)

// Epoch-windowed aggregation: instead of converging once and stopping, a
// task restarts push-sum every window. Epoch identity
// is a pure function of the shared clock, so every participant rolls into
// the same epoch without coordinator traffic, and each epoch's mass is
// accounted for independently — when an epoch closes, its outstanding
// unacked shares, its dedup state, and its conservation ledger retire as a
// unit, so nothing ambiguous leaks into the live estimate.

// ActionExchangeAck acknowledges custody transfer of exchange shares, one
// ack per share: a Service answers an exchange envelope with one envelope of
// acks. The sender keeps a transferred share's mass in its outstanding
// ledger until its ack arrives; only then is the transfer committed.
const ActionExchangeAck = core.Namespace + ":aggregate:exchangeAck"

// EpochAt returns the 1-based epoch index at time now for the given window
// length. Index 0 is reserved for "not yet in any epoch", so a node that
// has never rolled is distinguishable from one in the first window.
func EpochAt(now, window time.Duration) uint64 {
	if window <= 0 {
		return 0
	}
	if now < 0 {
		now = 0
	}
	return uint64(now/window) + 1
}

// ExchangeAck is the wire body confirming one exchange share.
type ExchangeAck struct {
	XMLName xml.Name `xml:"urn:wsgossip:2008 AggregateExchangeAck"`
	TaskID  string   `xml:"TaskID"`
	// From is the acking node's address.
	From string `xml:"From"`
	// Epoch is the acker's current epoch. A sender seeing an ack from a
	// later epoch rolls forward immediately — epochs spread epidemically,
	// the clock is only the local trigger.
	Epoch uint64 `xml:"Epoch"`
	// Seq identifies the acknowledged share (per-task sender sequence).
	Seq uint64 `xml:"Seq"`
}

// EpochEstimate is one closed epoch's final local estimate — the stable
// value consumers read while the next epoch is still mixing.
type EpochEstimate struct {
	// Epoch is the closed epoch's index.
	Epoch uint64
	// Estimate is the final local estimate; Defined reports whether the
	// node held enough weight for it to mean anything.
	Estimate float64
	Defined  bool
	// Weight is the weight held when the epoch closed.
	Weight float64
	// Rounds is how many exchange rounds the node ran in the epoch.
	Rounds int
	// ClosedAt is the clock offset at which the epoch was retired locally.
	ClosedAt time.Duration
}
