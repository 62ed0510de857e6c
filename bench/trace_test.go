package main

import (
	"context"
	"testing"
	"time"
)

// spin burns wall time so spans have a duration to account for.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// Self time is a span minus what its direct children cover, on the stack
// (single-goroutine workloads) and through contexts (the HTTP workload).
func TestSelfTime(t *testing.T) {
	for _, byCtx := range []bool{false, true} {
		tr := newTracer(byCtx)
		tr.on.Store(true)
		parent, ctx := tr.begin(context.Background(), spanHandler, 0)
		spin(2 * time.Millisecond)
		for i := 0; i < 2; i++ {
			child, cctx := tr.begin(ctx, spanRoleSend, 0)
			grand, _ := tr.begin(cctx, spanWireSend, 0)
			spin(time.Millisecond)
			tr.end(grand)
			tr.end(child)
		}
		tr.end(parent)

		if len(tr.spans) != 5 {
			t.Fatalf("byCtx=%v: %d spans, want 5", byCtx, len(tr.spans))
		}
		var children int64
		for _, s := range tr.spans {
			if s.kind == spanRoleSend {
				children += s.dur
				if s.parent != parent {
					t.Errorf("byCtx=%v: role send not parented to the handler", byCtx)
				}
				if s.self() > s.dur/2 {
					t.Errorf("byCtx=%v: role send self %d of %d; the wire send inside covers it", byCtx, s.self(), s.dur)
				}
			}
		}
		if parent.child != children {
			t.Errorf("byCtx=%v: parent.child = %d, want the two direct children's %d (grandchildren count once)", byCtx, parent.child, children)
		}
		if self := time.Duration(parent.self()); self < 2*time.Millisecond || self > 3*time.Millisecond {
			t.Errorf("byCtx=%v: parent self = %v, want the 2ms it spun itself", byCtx, self)
		}
	}
}

// A send is joined to the handler it caused on (MessageID, destination),
// earliest unmatched first.
func TestServerSelfJoin(t *testing.T) {
	tr := newTracer(true)
	add := func(kind spanKind, msgID, to string, start, dur int64) {
		tr.spans = append(tr.spans, &span{kind: kind, msgID: msgID, to: to, start: start, dur: dur})
	}
	// Two sends of the same notification to the same node (a duplicate),
	// one to another node, one whose handler was never seen.
	add(spanWireSend, "m1", "a", 0, 100_000)
	add(spanHandler, "m1", "a", 10_000, 60_000)
	add(spanWireSend, "m1", "a", 200_000, 50_000)
	add(spanHandler, "m1", "a", 210_000, 20_000)
	add(spanWireSend, "m1", "b", 0, 90_000)
	add(spanHandler, "m1", "b", 5_000, 70_000)
	add(spanWireSend, "m2", "a", 0, 1_000_000)
	// (100-60 + 50-20 + 90-70) / 3 µs
	if got, want := tr.serverSelfUs(), 30.0; got != want {
		t.Errorf("serverSelfUs = %v, want %v", got, want)
	}
}

func TestWsaText(t *testing.T) {
	data := []byte(`<Header><Action xmlns="http://www.w3.org/2005/08/addressing">urn:x:notify</Action>` +
		`<MessageID xmlns="http://www.w3.org/2005/08/addressing">urn:uuid:1</MessageID></Header>`)
	if got := wsaText(data, "Action"); got != "urn:x:notify" {
		t.Errorf("Action = %q", got)
	}
	if got := wsaText(data, "MessageID"); got != "urn:uuid:1" {
		t.Errorf("MessageID = %q", got)
	}
	if got := wsaText(data, "To"); got != "" {
		t.Errorf("absent To = %q", got)
	}
}
