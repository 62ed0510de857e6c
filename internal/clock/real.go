package clock

import "time"

// Real is a Clock backed by package time. Its epoch is fixed at
// construction, so Now is monotone and starts near zero.
type Real struct {
	epoch time.Time
}

var _ Clock = (*Real)(nil)

// NewReal returns a wall clock with its epoch at construction time.
func NewReal() *Real {
	return &Real{epoch: time.Now()}
}

// NewWall returns a wall clock anchored at the Unix epoch, so Now is the
// same offset in every process whose machine clock is synchronized. This is
// the clock for protocol state that must agree across nodes — continuous
// aggregation derives its epoch index from Now()/window, and two nodes with
// construction-time epochs would disagree on which epoch is open.
//
// A zero-value Real is NOT a substitute: its epoch is the zero time.Time
// (year 1), Now saturates time.Duration at its maximum, and every derived
// epoch index is garbage.
func NewWall() *Real {
	return &Real{epoch: time.Unix(0, 0)}
}

// Now returns the elapsed wall time since the epoch.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Wall returns the wall-clock instant at which Now reads d, for what takes
// a time.Time, such as a context deadline.
func (r *Real) Wall(d time.Duration) time.Time { return r.epoch.Add(d) }

// AfterFunc schedules fn on the wall clock.
func (r *Real) AfterFunc(d time.Duration, fn func()) func() bool {
	t := time.AfterFunc(d, fn)
	return t.Stop
}
