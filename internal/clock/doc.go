// Package clock abstracts time behind a pluggable interface so the same
// protocol runtime — the self-clocking gossip loops of core.Runner, the
// simulated network, the coordinator's activity expiry — runs identically on
// the wall clock in production and on a deterministic virtual clock in tests
// and large-N experiments.
//
// Two implementations ship:
//
//   - Real delegates to package time. Timers fire from the Go runtime's
//     timer goroutines at wall-clock rate.
//   - Virtual is a discrete-event scheduler: time stands still until a
//     driver calls Advance/RunUntil, timers fire in deterministic
//     (deadline, schedule order) sequence inside the driving goroutine, and
//     when Advance returns every timer due in the window has fully fired —
//     the barrier that makes virtual-time tests assertable without sleeps.
//
// Virtual is built for simulated populations of 10^5..10^6 nodes: one
// (deadline, seq) heap under one mutex, cancelled timers compacted lazily
// once they dominate it, and fired timers recycled through a free list
// guarded by generation counters. Schedule is AfterFunc without the stop
// handle, for callers that never cancel (simnet's message deliveries): it
// fires the caller's own record, which must embed a Slot (the SlotEvent
// interface), and arms the timer inside it, so it allocates nothing.
// AfterFunc takes its timer from the free list, a new one when the list is
// empty, and allocates its stop closure every time.
//
// Times are expressed as offsets (time.Duration) from an arbitrary
// per-clock epoch rather than as time.Time: an epoch-free timeline is the
// only honest representation a simulation has.
//
// Key types: Clock (Now / AfterFunc), Real, Virtual, Slot, SlotEvent. The
// paper's protocols are specified in rounds; this package is what lets those
// rounds be tested in virtual time (internal/scenario) and shipped on real
// time (cmd/wsgossip-node) from one code path.
package clock
