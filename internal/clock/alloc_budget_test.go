package clock

import (
	"testing"
	"time"

	"wsgossip/internal/testkit"
)

// slotCounter is an event that carries its own timer.
type slotCounter struct {
	Slot
	fired int
}

func (e *slotCounter) Fire() { e.fired++ }

// TestScheduleSlotAllocBudget: with the free list empty, Schedule arms an
// event on the timer in its Slot and allocates nothing, and firing it leaves
// nothing on the free list. That is why simnet's delivery record carries a
// Slot: a message in flight is one record, not a record and a timer.
func TestScheduleSlotAllocBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := NewVirtual()
	ev := &slotCounter{}
	allocs := testing.AllocsPerRun(100, func() {
		clear(v.free)
		v.free = v.free[:0]
		v.Schedule(time.Millisecond, ev)
		v.Advance(time.Millisecond)
	})
	if v.FreeLen() != 0 {
		t.Fatalf("a Slot's timer went onto the free list: %d entries", v.FreeLen())
	}
	if ev.fired != 101 || v.Pending() != 0 {
		t.Fatalf("fired %d events, %d pending; want 101, 0", ev.fired, v.Pending())
	}
	if allocs != 0 {
		t.Errorf("Schedule + fire of a Slot-carrying event = %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleSlotTwicePanics: a Slot holds one timer, so an event cannot be
// pending twice.
func TestScheduleSlotTwicePanics(t *testing.T) {
	v := NewVirtual()
	ev := &slotCounter{}
	v.Schedule(time.Millisecond, ev)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Schedule of a pending Slot did not panic")
		}
	}()
	v.Schedule(time.Millisecond, ev)
}
