package soap

import (
	"context"
	"encoding/xml"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Ownership of a received request: a binding's one-way request lives until
// its handler returns and is then recycled, zeroed; a Call's request and
// response, and whatever Decode returns, belong to their holder and are never
// recycled.

// zeroed reports whether env is what a recycled request leaves a handler that
// kept it: no name, no header, no body blocks.
func zeroed(env *Envelope) bool {
	return env.XMLName == (xml.Name{}) && env.Header == nil && len(env.Body.Blocks) == 0
}

// keeper is a handler that keeps the envelope of every request it serves.
type keeper struct {
	mu   sync.Mutex
	kept []*Envelope
}

func (k *keeper) HandleSOAP(_ context.Context, req *Request) (*Envelope, error) {
	if req.Envelope.BodyName().Local != "Ping" {
		return nil, NewFault(CodeSender, "no Ping body")
	}
	k.mu.Lock()
	k.kept = append(k.kept, req.Envelope)
	k.mu.Unlock()
	return nil, nil
}

func (k *keeper) last(t *testing.T) *Envelope {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.kept) == 0 {
		t.Fatal("handler never ran")
	}
	return k.kept[len(k.kept)-1]
}

func TestOneWayRequestZeroedAfterHandler(t *testing.T) {
	t.Run("membus", func(t *testing.T) {
		bus := NewMemBus()
		k := &keeper{}
		bus.Register("mem://svc", k)
		if err := bus.Send(context.Background(), "mem://svc", newCallEnv(t, "mem://svc", "urn:x", testBody{Value: "v"})); err != nil {
			t.Fatal(err)
		}
		if env := k.last(t); !zeroed(env) {
			t.Fatalf("kept one-way request survives its delivery: %+v", env)
		}
	})
	t.Run("http", func(t *testing.T) {
		k := &keeper{}
		rec := httptest.NewRecorder()
		NewHTTPServer(k).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(mustEncodeEnv(t))))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if env := k.last(t); !zeroed(env) {
			t.Fatalf("kept request survives its exchange: %+v", env)
		}
	})
}

func TestCallAndDecodeNeverRecycled(t *testing.T) {
	ctx := context.Background()
	bus := NewMemBus()
	var callReq *Envelope
	bus.Register("mem://echo", HandlerFunc(func(ctx context.Context, req *Request) (*Envelope, error) {
		callReq = req.Envelope
		return echoHandler().HandleSOAP(ctx, req)
	}))
	k := &keeper{}
	bus.Register("mem://oneway", k)

	resp, err := bus.Call(ctx, "mem://echo", newCallEnv(t, "mem://echo", "urn:echo", testBody{Value: "call", N: 1}))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode([]byte(mustEncodeEnv(t)))
	if err != nil {
		t.Fatal(err)
	}
	// One-way deliveries that draw requests from the pool and give them back.
	for i := 0; i < 8; i++ {
		if err := bus.Send(ctx, "mem://oneway", newCallEnv(t, "mem://oneway", "urn:x", testBody{Value: "one-way"})); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		what string
		env  *Envelope
		want string
	}{
		{"Call response", resp, "echo:call"},
		{"Call request", callReq, "call"},
		{"Decode result", decoded, "v"},
	} {
		var got testBody
		if err := c.env.DecodeBody(&got); err != nil || got.Value != c.want {
			t.Fatalf("%s after later one-way deliveries: %+v, %v", c.what, got, err)
		}
	}
}

// TestMemBusSurvivesHandlerPanic: a handler panic unwinds through the Send
// that is draining, and the bus still delivers the next Send.
func TestMemBusSurvivesHandlerPanic(t *testing.T) {
	ctx := context.Background()
	bus := NewMemBus()
	var calls atomic.Int32
	bus.Register("mem://svc", HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		if calls.Add(1) == 1 {
			panic("first message")
		}
		return nil, nil
	}))
	send := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		if err := bus.Send(ctx, "mem://svc", newCallEnv(t, "mem://svc", "urn:x", testBody{})); err != nil {
			t.Fatal(err)
		}
		return false
	}
	if !send() {
		t.Fatal("the handler's panic did not reach the sender")
	}
	if send() {
		t.Fatal("second message panicked")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2: the bus is wedged after a panic", got)
	}
}

// TestHTTPServerConcurrentOneWayPayloads: concurrent one-way POSTs to one
// server each reach their handler with their own payload, however the
// requests and buffers recycle between them. Run it under -race.
func TestHTTPServerConcurrentOneWayPayloads(t *testing.T) {
	var bad, served atomic.Int32
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(_ context.Context, req *Request) (*Envelope, error) {
		var in testBody
		if err := req.Envelope.DecodeBody(&in); err != nil {
			bad.Add(1)
			return nil, err
		}
		// The payload is the checksum, then the data it sums.
		sum, data, ok := strings.Cut(in.Value, ":")
		if !ok || sum != strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(data))), 10) {
			bad.Add(1)
		}
		served.Add(1)
		return nil, nil
	})))
	defer srv.Close()
	client := NewHTTPClient(srv.Client())
	const senders, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := strings.Repeat(strconv.Itoa(g*each+i), 1+i%40)
				value := strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(data))), 10) + ":" + data
				env := NewEnvelope()
				if err := env.SetBody(testBody{Value: value, N: i}); err != nil {
					t.Error(err)
					return
				}
				if err := client.Send(context.Background(), srv.URL, env); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if served.Load() != senders*each || bad.Load() != 0 {
		t.Fatalf("served %d of %d, %d with a payload not their own", served.Load(), senders*each, bad.Load())
	}
}
