package soap

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/wsa"
)

// Micro-benchmarks of the envelope codec, the innermost hot path of every
// gossip exchange. BENCH_02.json records these before and after the
// encode-once / zero-copy wire path.

type benchPayload struct {
	XMLName struct{} `xml:"urn:bench Payload"`
	Data    string   `xml:"Data"`
}

func benchEnvelope(b testing.TB, size int) *Envelope {
	b.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        "mem://target",
		Action:    "urn:bench:op",
		MessageID: "urn:uuid:benchbenchbenchbenchbenchbench",
	}); err != nil {
		b.Fatal(err)
	}
	if err := env.SetBody(benchPayload{Data: strings.Repeat("x", size)}); err != nil {
		b.Fatal(err)
	}
	return env
}

func benchSizes() []struct {
	name string
	size int
} {
	return []struct {
		name string
		size int
	}{{"256B", 256}, {"1KiB", 1 << 10}, {"8KiB", 8 << 10}}
}

// BenchmarkEnvelopeEncode measures full envelope serialization.
func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, sz := range benchSizes() {
		b.Run(sz.name, func(b *testing.B) {
			env := benchEnvelope(b, sz.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeDecode measures full envelope parsing, including header
// and body block capture.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, sz := range benchSizes() {
		b.Run(sz.name, func(b *testing.B) {
			data, err := benchEnvelope(b, sz.size).Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeClone and BenchmarkEnvelopeSnapshot measure the two
// copies of a received 1 KiB notification: Clone for the store, Snapshot
// for every forward.
func BenchmarkEnvelopeClone(b *testing.B)    { benchCopy(b, (*Envelope).Clone) }
func BenchmarkEnvelopeSnapshot(b *testing.B) { benchCopy(b, (*Envelope).Snapshot) }

func benchCopy(b *testing.B, copyOf func(*Envelope) *Envelope) {
	data, err := benchEnvelope(b, 1<<10).Encode()
	if err != nil {
		b.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEnv = copyOf(env)
	}
}

// BenchmarkPoolCycle measures a wire buffer's way back into the pool and
// out again, which every rendered message and every receive buffer takes.
func BenchmarkPoolCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		putBytes(getBytes(4096))
	}
}

// BenchmarkWireRoundTrip measures one decode + re-encode cycle: what every
// disseminator pays per hop on top of transport costs.
func BenchmarkWireRoundTrip(b *testing.B) {
	data, err := benchEnvelope(b, 1<<10).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// outboundBlocks returns a prebuilt header block and body block, as the
// builders attach them (the coordination context, an announce body).
func outboundBlocks(tb testing.TB) (hdr, body Block) {
	tb.Helper()
	hdr, err := MarshalBlock(struct {
		XMLName struct{} `xml:"urn:bench Context"`
		ID      string   `xml:"Identifier"`
	}{ID: "urn:uuid:task"})
	if err != nil {
		tb.Fatal(err)
	}
	if body, err = MarshalBlock(benchPayload{Data: "share"}); err != nil {
		tb.Fatal(err)
	}
	return hdr, body
}

// buildOutbound is an originated message as the builders assemble one.
func buildOutbound(hdr, body Block) *Envelope {
	env := NewEnvelope()
	_ = env.SetAddressing(wsa.Headers{
		Action:    "urn:bench:op",
		MessageID: "urn:uuid:benchbenchbenchbenchbenchbench",
	})
	env.AddHeaderBlock(hdr)
	env.SetBodyBlock(body)
	return env
}

// BenchmarkOutboundBuild measures building an originated message up to its
// encode: envelope, addressing, one header block, the body.
func BenchmarkOutboundBuild(b *testing.B) {
	hdr, body := outboundBlocks(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEnv = buildOutbound(hdr, body)
	}
}

// BenchmarkMemBusOneWay measures a one-way delivery over MemBus: render,
// decode, a handler that reads the action and body name, and both the buffer
// and the request back to their pools.
func BenchmarkMemBusOneWay(b *testing.B) {
	deliver := oneWayDelivery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		deliver()
	}
}

// BenchmarkMarshalBlock measures MarshalBlock of a value with one 256 B
// string field: the pooled encoder's write and the block's one copy.
func BenchmarkMarshalBlock(b *testing.B) {
	v := &benchPayload{Data: strings.Repeat("x", 256)}
	b.ReportAllocs()
	for range b.N {
		blk, err := MarshalBlock(v)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlock = blk
	}
}

// httpOneWay returns one one-way exchange over loopback HTTP — a rendered,
// pooled 1 KiB envelope handed to SendEncoded with ctx, read, decoded and
// handled by the server, answered 202 — and the server's Close. The client
// is made as the deployments make theirs, with a 10 s Timeout.
func httpOneWay(tb testing.TB, ctx context.Context) (send func(), stop func()) {
	tb.Helper()
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, nil
	})))
	client := NewHTTPClient(&http.Client{Transport: srv.Client().Transport, Timeout: 10 * time.Second})
	tmpl, err := benchEnvelope(tb, 1<<10).EncodeTemplate()
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := client.SendEncoded(ctx, srv.URL, tmpl.RenderTo(srv.URL)); err != nil {
			tb.Fatal(err)
		}
	}, srv.Close
}

// BenchmarkHTTPSendEncoded measures a one-way SendEncoded over loopback HTTP,
// with no deadline (the client's Timeout bounds it) and with an earlier one,
// as a delivery plane's attempt on the wall clock has. Its allocations are
// both ends', since the server runs in this process.
func BenchmarkHTTPSendEncoded(b *testing.B) {
	for _, c := range []struct {
		name     string
		deadline bool
	}{{"timeout", false}, {"deadline", true}} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			if c.deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 5*time.Second)
				defer cancel()
			}
			send, stop := httpOneWay(b, ctx)
			defer stop()
			send() // open the connection outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
		})
	}
}

// BenchmarkReadRequestBody measures the server's read of a request body of a
// declared length: a gossip message (1 KiB), a membership view of about
// 2,000 members (72 KiB, just past the first buffer) and a body at the top
// pooled size class (1 MiB). Each read's buffer goes back to the pool.
func BenchmarkReadRequestBody(b *testing.B) {
	for _, size := range []int{1 << 10, 72 << 10, 1 << 20} {
		b.Run(strconv.Itoa(size>>10)+"KiB", func(b *testing.B) {
			body := make([]byte, size)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/", rd)
			req.ContentLength = int64(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				data, err := readRequestBody(req)
				if err != nil {
					b.Fatal(err)
				}
				putBytes(data)
			}
		})
	}
}
