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
}
