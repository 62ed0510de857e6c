package soap

import (
	"context"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/metrics"
	"wsgossip/internal/testkit"
)

// Allocation-budget regression guard. BENCH_04 drove the canonical decode
// to single-digit allocs/op; these tests pin that win against silent
// regressions with budgets committed in testdata/alloc_budget.json — CI
// runs them (and the -benchmem smoke) on every push.

type allocBudget struct {
	DecodeMaxAllocs    float64 `json:"decode_1kib_max_allocs"`
	EncodeMaxAllocs    float64 `json:"encode_1kib_max_allocs"`
	CloneMaxAllocs     float64 `json:"clone_max_allocs"`
	SnapshotMaxAllocs  float64 `json:"snapshot_max_allocs"`
	PoolCycleMaxAllocs float64 `json:"pool_cycle_max_allocs"`
	OutboundMaxAllocs  float64 `json:"outbound_build_max_allocs"`
	OneWayMaxAllocs    float64 `json:"membus_one_way_delivery_max_allocs"`
	MarshalMaxAllocs   float64 `json:"marshal_block_max_allocs"`
	HTTPSendMaxAllocs  float64 `json:"http_send_encoded_max_allocs"`
}

func TestDecodeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	env := benchEnvelope(t, 1<<10)
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The canonical wire format must take the scanner path at all — a
	// budget met by accident on the fallback would hide a broken scanner.
	if _, ok := decodeScan(data, false); !ok {
		t.Fatalf("canonical envelope rejected by the scanner:\n%s", data)
	}
	decodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if decodeAllocs > budget.DecodeMaxAllocs {
		t.Errorf("Decode(1KiB) = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			decodeAllocs, budget.DecodeMaxAllocs)
	}
	encodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := env.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encodeAllocs > budget.EncodeMaxAllocs {
		t.Errorf("Encode(1KiB) = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			encodeAllocs, budget.EncodeMaxAllocs)
	}
	t.Logf("decode %.1f allocs/op (budget %.0f), encode %.1f allocs/op (budget %.0f)",
		decodeAllocs, budget.DecodeMaxAllocs, encodeAllocs, budget.EncodeMaxAllocs)
}

// TestDecodeAllocBudgetInstrumented re-runs the decode/encode budgets with
// wire metrics installed: instrumentation is all atomic ops, so it must fit
// the SAME budgets, and the per-op delta versus the uninstrumented path
// must stay within one alloc.
func TestDecodeAllocBudgetInstrumented(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	env := benchEnvelope(t, 1<<10)
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})

	InstallWireMetrics(metrics.NewRegistry())
	defer InstallWireMetrics(nil)
	instrumented := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented > budget.DecodeMaxAllocs {
		t.Errorf("instrumented Decode(1KiB) = %.1f allocs/op, budget %.0f", instrumented, budget.DecodeMaxAllocs)
	}
	if instrumented-bare > 1 {
		t.Errorf("instrumentation added %.1f allocs/op to Decode (bare %.1f, instrumented %.1f), budget 1",
			instrumented-bare, bare, instrumented)
	}
	encodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := env.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encodeAllocs > budget.EncodeMaxAllocs {
		t.Errorf("instrumented Encode(1KiB) = %.1f allocs/op, budget %.0f", encodeAllocs, budget.EncodeMaxAllocs)
	}
	t.Logf("decode bare %.1f vs instrumented %.1f allocs/op; encode instrumented %.1f",
		bare, instrumented, encodeAllocs)
}

// TestCopyAndPoolAllocBudget: what a received envelope costs past its
// decode — the store's Clone, the forward path's Snapshot — and a pooled
// buffer's way back into the pool and out again.
func TestCopyAndPoolAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	data, err := benchEnvelope(t, 1<<10).Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		what   string
		budget float64
		op     func()
	}{
		{"Clone", budget.CloneMaxAllocs, func() { sinkEnv = env.Clone() }},
		{"Snapshot", budget.SnapshotMaxAllocs, func() { sinkEnv = env.Snapshot() }},
		{"putBytes→getBytes", budget.PoolCycleMaxAllocs, func() { putBytes(getBytes(4096)) }},
	} {
		allocs := testing.AllocsPerRun(200, row.op)
		if allocs > row.budget {
			t.Errorf("%s = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)", row.what, allocs, row.budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", row.what, allocs, row.budget)
	}
}

// TestOutboundBuildAllocBudget: what every IHAVE, IWANT, digest, share, ack
// and probe costs to build before it is encoded — NewEnvelope, its
// addressing, one more header block and the body — is the envelope's one
// object and the addressing blocks' one buffer.
func TestOutboundBuildAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	hdr, body := outboundBlocks(t)
	allocs := testing.AllocsPerRun(200, func() { sinkEnv = buildOutbound(hdr, body) })
	if allocs != budget.OutboundMaxAllocs {
		t.Errorf("outbound build = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)",
			allocs, budget.OutboundMaxAllocs)
	}
	t.Logf("outbound build: %.1f allocs/op (budget %.0f)", allocs, budget.OutboundMaxAllocs)
}

// oneWayDelivery is a bus with one endpoint whose handler reads what a
// dispatcher reads, and a one-way delivery to it: a freshly rendered, pooled
// buffer handed to SendEncoded, decoded, handled, and recycled with its
// request.
func oneWayDelivery(tb testing.TB) func() {
	tb.Helper()
	bus := NewMemBus()
	bus.Register("mem://target", HandlerFunc(func(_ context.Context, req *Request) (*Envelope, error) {
		if req.Action() != "urn:bench:op" || req.Envelope.BodyName().Local != "Payload" {
			tb.Fatalf("delivered %q with body %v", req.Action(), req.Envelope.BodyName())
		}
		return nil, nil
	}))
	tmpl, err := benchEnvelope(tb, 1<<10).EncodeTemplate()
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := bus.SendEncoded(context.Background(), "mem://target", tmpl.RenderTo("mem://target")); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestMemBusOneWayAllocBudget: a one-way delivery over MemBus allocates
// nothing — its buffer and its decoded request both come from a pool and go
// back once the handler returns.
func TestMemBusOneWayAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	allocs := testing.AllocsPerRun(200, oneWayDelivery(t))
	if allocs != budget.OneWayMaxAllocs {
		t.Errorf("one-way MemBus delivery = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)",
			allocs, budget.OneWayMaxAllocs)
	}
	t.Logf("one-way MemBus delivery: %.1f allocs/op (budget %.0f)", allocs, budget.OneWayMaxAllocs)
}

// TestMarshalBlockAllocBudget: MarshalBlock of a value with one string field
// is the block's exactly sized copy; the encoder, its buffers and the scratch
// it writes into are pooled, and the block's name is interned.
func TestMarshalBlockAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	v := &benchPayload{Data: strings.Repeat("x", 256)}
	allocs := testing.AllocsPerRun(200, func() {
		b, err := MarshalBlock(v)
		if err != nil {
			t.Fatal(err)
		}
		sinkBlock = b
	})
	if allocs != budget.MarshalMaxAllocs {
		t.Errorf("MarshalBlock = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)",
			allocs, budget.MarshalMaxAllocs)
	}
	t.Logf("MarshalBlock: %.1f allocs/op (budget %.0f)", allocs, budget.MarshalMaxAllocs)
}

// sinkBlock keeps a measured block live, so the compiler cannot elide it.
var sinkBlock Block

// sinkEnv keeps a measured copy live, so the compiler cannot elide it.
var sinkEnv *Envelope

// TestHTTPSendEncodedAllocBudget: a one-way SendEncoded over loopback HTTP,
// with a deadline earlier than the client's Timeout as a delivery plane's
// attempt on the wall clock has, costs no more than its budget — counting
// both ends, since the server runs in this process. net/http is most of it.
func TestHTTPSendEncodedAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	send, stop := httpOneWay(t, ctx)
	defer stop()
	send() // open the connection outside the measurement
	allocs := testing.AllocsPerRun(200, send)
	if allocs > budget.HTTPSendMaxAllocs {
		t.Errorf("HTTP SendEncoded = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.HTTPSendMaxAllocs)
	}
	t.Logf("HTTP SendEncoded: %.1f allocs/op (budget %.0f)", allocs, budget.HTTPSendMaxAllocs)
}
