package clock

import "time"

// Clock is the time source and timer factory the runtime schedules on.
// Real, Virtual and simnet.Network satisfy it.
type Clock interface {
	// Now returns the current time as an offset from the clock's epoch.
	Now() time.Duration

	// AfterFunc schedules fn to run once, d from now. The returned stop
	// function cancels the timer if it has not fired yet and reports
	// whether cancellation succeeded. fn runs on the clock's firing
	// goroutine: a timer goroutine for Real, the Advance caller for
	// Virtual — it must not block indefinitely.
	AfterFunc(d time.Duration, fn func()) (stop func() bool)
}
