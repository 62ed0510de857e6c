package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestMuxDispatch(t *testing.T) {
	m := NewMux()
	var got string
	m.Handle("a", func(_ context.Context, msg Message) error {
		got = "a:" + string(msg.Body)
		return nil
	})
	m.Handle("b", func(_ context.Context, msg Message) error {
		got = "b"
		return nil
	})
	if err := m.Dispatch(context.Background(), Message{Action: "a", Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if got != "a:x" {
		t.Fatalf("got = %q", got)
	}
}

func TestMuxUnknownAction(t *testing.T) {
	m := NewMux()
	err := m.Dispatch(context.Background(), Message{Action: "nope"})
	if err == nil || err.Error() != `transport: no handler for action "nope"` {
		t.Fatalf("err = %v", err)
	}
	// A route's list names only its actions.
	m.Route([]string{"a", "b"}, func(context.Context, Message) error { return nil })
	if err := m.Dispatch(context.Background(), Message{Action: "nope"}); err == nil {
		t.Fatal("unknown action dispatched")
	}
}

func TestMuxHandlerErrorPropagates(t *testing.T) {
	m := NewMux()
	boom := errors.New("boom")
	m.Handle("x", func(context.Context, Message) error { return boom })
	if err := m.Dispatch(context.Background(), Message{Action: "x"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMuxReplaceBinding(t *testing.T) {
	m := NewMux()
	var got string
	m.Handle("x", func(context.Context, Message) error { got = "first"; return nil })
	m.Handle("x", func(context.Context, Message) error { got = "second"; return nil })
	_ = m.Dispatch(context.Background(), Message{Action: "x"})
	if got != "second" {
		t.Fatalf("got = %q", got)
	}
}

func TestMuxConcurrentAccess(t *testing.T) {
	m := NewMux()
	m.Handle("x", func(context.Context, Message) error { return nil })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = m.Dispatch(context.Background(), Message{Action: "x"})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Handle("x", func(context.Context, Message) error { return nil })
			}
		}()
	}
	wg.Wait()
	if len(m.routes) != 1 {
		t.Fatalf("%d routes after re-binding one action", len(m.routes))
	}
}

// recorder returns a handler that records its name and the action it got.
func recorder(got *string, name string) Handler {
	return func(_ context.Context, msg Message) error {
		*got = name + ":" + msg.Action
		return nil
	}
}

func TestMuxGroupedRoute(t *testing.T) {
	m := NewMux()
	var got string
	dispatch := func(action string) string {
		t.Helper()
		got = ""
		if err := m.Dispatch(context.Background(), Message{Action: action}); err != nil {
			t.Fatalf("%s: %v", action, err)
		}
		return got
	}
	m.Route([]string{"a", "b", "c"}, recorder(&got, "group"))
	for _, a := range []string{"a", "b", "c"} {
		if r := dispatch(a); r != "group:"+a {
			t.Fatalf("%s went to %q", a, r)
		}
	}

	// Re-binding one of the route's actions overrides only that action.
	m.Handle("b", recorder(&got, "one"))
	if r := dispatch("b"); r != "one:b" {
		t.Fatalf("b went to %q", r)
	}
	if r := dispatch("a") + dispatch("c"); r != "group:agroup:c" {
		t.Fatalf("a and c went to %q", r)
	}
	if len(m.routes) != 2 {
		t.Fatalf("%d routes, want the group and its override", len(m.routes))
	}

	// A later route over the same actions replaces both.
	m.Route([]string{"a", "b", "c"}, recorder(&got, "again"))
	if r := dispatch("b"); r != "again:b" {
		t.Fatalf("b went to %q", r)
	}
	if len(m.routes) != 1 {
		t.Fatalf("%d routes after re-binding the group", len(m.routes))
	}

	// A route over some of a group's actions leaves the group the rest.
	m.Route([]string{"c", "d"}, recorder(&got, "cd"))
	if r := dispatch("a") + dispatch("c") + dispatch("d"); r != "again:acd:ccd:d" {
		t.Fatalf("a, c and d went to %q", r)
	}
	if len(m.routes) != 2 {
		t.Fatalf("%d routes, want two overlapping groups", len(m.routes))
	}
}

func TestMuxDispatchAllocatesNothing(t *testing.T) {
	nop := func(context.Context, Message) error { return nil }
	m := NewMux()
	m.Route([]string{"a", "b", "c", "d", "e"}, nop)
	m.Handle("x", nop)
	for _, action := range []string{"e", "x"} {
		msg := Message{Action: action, Body: []byte("body")}
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.Dispatch(context.Background(), msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Dispatch(%q) = %v allocs", action, allocs)
		}
	}
}
