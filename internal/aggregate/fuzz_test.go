package aggregate

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// fuzzableXML reports whether s survives an XML encode/decode unchanged:
// valid UTF-8, no control characters (XML 1.0 cannot carry them), and no
// carriage returns (normalized to newlines by the parser).
func fuzzableXML(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r < 0x20 && r != '\t' && r != '\n' {
			return false
		}
		if r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

// FuzzExchangeRoundTrip drives the full continuous-exchange wire cycle for
// arbitrary share payloads: build the SOAP message (epoch ID, weight, mass,
// window, seq), encode it, re-decode it through the scanner path, and
// require the extracted Share to be field-exact. This is the codec contract
// the acked exchange's retries depend on — a retried share must carry
// byte-identical semantics or dedup and commit break. The same payload pins
// the flat share/ack codec against encoding/xml, differentially: the writer's
// bytes are xml.Marshal's, and the reader's value is xml.Unmarshal's.
func FuzzExchangeRoundTrip(f *testing.F) {
	f.Add("task-1", "mem://a", "load", "mem://root", "avg", 1.5, 0.25, -3.0, 7.0, true, uint64(3), uint64(41), int64(5000))
	f.Add("t", "", "", "", "count", 0.0, 0.0, 0.0, 0.0, false, uint64(0), uint64(0), int64(0))
	f.Add("epoch&window <q>", "mem://ünïcødé", "lag", "mem://r", "max", -0.0, 1e-300, math.MaxFloat64, -math.MaxFloat64, true, uint64(math.MaxUint64), uint64(1), int64(1))
	negZero := math.Copysign(0, -1)
	f.Add("", "", "", "", "", negZero, 5e-324, negZero, -5e-324, false, uint64(0), uint64(math.MaxUint64), int64(math.MinInt64))
	f.Add("t", "a", "", "", "min", math.MaxFloat64, -math.MaxFloat64, 0.0, 2.2250738585072014e-308, true, uint64(1), uint64(0), int64(999_999_999))
	f.Fuzz(func(t *testing.T, taskID, from, metric, root, fn string,
		sum, weight, min, max float64, hasExtremes bool,
		epoch, seq uint64, windowMillis int64) {
		for _, s := range []string{taskID, from, metric, root, fn} {
			if !fuzzableXML(s) {
				return
			}
		}
		for _, v := range []float64{sum, weight, min, max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		in := Share{
			TaskID:       taskID,
			Function:     fn,
			From:         from,
			Sum:          sum,
			Weight:       weight,
			HasExtremes:  hasExtremes,
			Min:          min,
			Max:          max,
			WindowMillis: windowMillis,
			Epoch:        epoch,
			Seq:          seq,
			Root:         root,
			Metric:       metric,
		}
		ack := ExchangeAck{TaskID: taskID, From: from, Epoch: epoch, Seq: seq}
		shareRaw, ackRaw := shareBlock(&in).Raw, ackBlock(&ack).Raw
		flatMatchesXML(t, &in, shareRaw, func(raw []byte) (any, error) { return wholeShare(raw) })
		flatMatchesXML(t, &ack, ackRaw, func(raw []byte) (any, error) {
			a, id, err := decodeAck(raw)
			a.TaskID = string(id)
			return a, err
		})
		// The fast reader must take what the writer emits (a window beyond
		// nine digits is the one canonical share it leaves to encoding/xml).
		if _, _, ok := scanShare(shareRaw); !ok && windowMillis > -1e9 && windowMillis < 1e9 {
			t.Fatalf("flat reader declined its own writer's share: %q", shareRaw)
		}
		if _, _, ok := scanAck(ackRaw); !ok {
			t.Fatalf("flat reader declined its own writer's ack: %q", ackRaw)
		}
		cctx := wscoord.CoordinationContext{
			Identifier:          "urn:fuzz:task",
			CoordinationType:    "urn:fuzz:type",
			RegistrationService: wscoord.ServiceRef{Address: "mem://reg"},
		}
		env, err := handBuilt(ActionExchange, contextBlock(cctx))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		env.SetBodyBlock(shareBlock(&in))
		data, err := env.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		decoded, err := soap.Decode(data)
		if err != nil {
			t.Fatalf("scanner decode: %v\nwire: %q", err, data)
		}
		out, err := wholeShare(decoded.Body.Blocks[0].Raw)
		if err != nil {
			t.Fatalf("decode body: %v\nwire: %q", err, data)
		}
		out.XMLName = in.XMLName
		if out != in {
			t.Fatalf("share round trip mismatch:\n in: %+v\nout: %+v\nwire: %q", in, out, data)
		}
	})
}

// wholeShare is decodeShare with the TaskID read off the wire put back: the
// value xml.Unmarshal yields.
func wholeShare(raw []byte) (Share, error) {
	sh, id, err := decodeShare(raw)
	sh.TaskID = string(id)
	return sh, err
}

// flatMatchesXML requires flat to be xml.Marshal(v) byte for byte, and
// decode(flat) to yield exactly what xml.Unmarshal yields for those bytes.
func flatMatchesXML(t *testing.T, v any, flat []byte, decode func([]byte) (any, error)) {
	t.Helper()
	want, err := xml.Marshal(v)
	if err != nil {
		t.Fatalf("xml.Marshal: %v", err)
	}
	if !bytes.Equal(flat, want) {
		t.Fatalf("flat writer diverges from xml.Marshal:\nflat: %q\n xml: %q", flat, want)
	}
	got, err := decode(flat)
	if err != nil {
		t.Fatalf("flat decode: %v\nwire: %q", err, flat)
	}
	std := reflect.New(reflect.TypeOf(v).Elem())
	if err := xml.Unmarshal(flat, std.Interface()); err != nil {
		t.Fatalf("xml.Unmarshal: %v\nwire: %q", err, flat)
	}
	if !reflect.DeepEqual(got, std.Elem().Interface()) {
		t.Fatalf("flat reader diverges from xml.Unmarshal:\nflat: %+v\n xml: %+v\nwire: %q", got, std.Elem().Interface(), flat)
	}
}

// batchContext is the coordination context of a twoTasks entry.
func batchContext(id string) wscoord.CoordinationContext {
	return wscoord.CoordinationContext{
		Identifier:          id,
		CoordinationType:    "urn:fuzz:type",
		RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
	}
}

// batchCaller counts the ack envelopes a Service sends and drops every
// envelope: shares stay pending, for acks to commit.
type batchCaller struct{ acks int }

func (c *batchCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, errors.New("batchCaller: no coordinator")
}

func (c *batchCaller) Send(_ context.Context, _ string, env *soap.Envelope) error {
	if env.Action() == ActionExchangeAck {
		c.acks++
	}
	return nil
}

func (c *batchCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return c.Send(ctx, to, env)
}

// FuzzExchangeBatch drives arbitrary multi-child bodies through the
// Service's batched intake, as an exchange envelope and as an ack envelope
// carrying both tasks' contexts, at a node holding both tasks with shares
// pending. The committed corpus holds a two-task exchange body and a
// two-task ack body captured from newTwoTaskTick's traffic. Whatever the children: no panic; an envelope with a child that is
// not a share (or not an ack) is a fault that absorbs (or commits) nothing;
// an exchange envelope is answered by at most one ack envelope; and the mass
// error stays exactly zero.
func FuzzExchangeBatch(f *testing.F) {
	share := func(task string, seq uint64) Share {
		return Share{TaskID: task, Function: string(FuncAvg), From: "mem://peer", Sum: 1.5, Weight: 0.25,
			WindowMillis: 1000, Epoch: 3, Seq: seq, Root: "mem://root", Metric: "load"}
	}
	body := func(blocks ...soap.Block) []byte {
		var b []byte
		for _, bl := range blocks {
			b = append(b, bl.Raw...)
		}
		return b
	}
	a, b := share(twoTasks[0], 1), share(twoTasks[1], 2)
	f.Add(body(shareBlock(&a), shareBlock(&b)))
	f.Add(body(ackBlock(&ExchangeAck{TaskID: twoTasks[0], From: "mem://peer", Epoch: 3, Seq: 1}),
		ackBlock(&ExchangeAck{TaskID: twoTasks[1], From: "mem://peer", Epoch: 3, Seq: 1})))
	huge, huger := a, a
	huge.Weight, huger.Weight, huger.Seq = math.MaxFloat64, math.MaxFloat64, 7
	f.Add(body(shareBlock(&huge), shareBlock(&huger)))
	f.Add(body(shareBlock(&a), soap.Block{Raw: []byte(`<AggregateShare xmlns="urn:wsgossip:2008"><Sum>x</Sum></AggregateShare>`)}))
	f.Fuzz(func(t *testing.T, children []byte) {
		reg := metrics.NewRegistry()
		caller := &batchCaller{}
		clk := clock.NewVirtual()
		clk.Advance(2 * time.Second)
		svc, err := NewService(ServiceConfig{Address: "mem://node", Caller: caller, Clock: clk, Metrics: reg,
			Value: func() float64 { return 1 }, RNG: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		var contexts []soap.Block
		for _, id := range twoTasks {
			svc.install(id, FuncAvg, time.Second, svc.Address(), "load", core.AggregateParameters{Fanout: 1, Targets: []string{"mem://peer"}}, batchContext(id))
			contexts = append(contexts, contextBlock(batchContext(id)))
		}
		svc.Tick(context.Background()) // one pending share per task
		for _, action := range []string{ActionExchange, ActionExchangeAck} {
			env, err := handBuilt(action, contexts...)
			if err != nil {
				t.Fatal(err)
			}
			data, err := env.Encode()
			if err != nil {
				t.Fatal(err)
			}
			data = bytes.Replace(data, []byte("<Body></Body>"), append(append([]byte("<Body>"), children...), "</Body>"...), 1)
			decoded, err := soap.Decode(data)
			if err != nil {
				return // not a document: no handler would see it
			}
			malformed := len(decoded.Body.Blocks) == 0
			for _, blk := range decoded.Body.Blocks {
				if action == ActionExchange {
					_, _, err = decodeShare(blk.Raw)
				} else {
					_, _, err = decodeAck(blk.Raw)
				}
				malformed = malformed || err != nil
			}
			before, acks := svc.Stats(), caller.acks
			if action == ActionExchange {
				_, err = svc.handleExchange(context.Background(), &soap.Request{Envelope: decoded})
			} else {
				_, err = svc.handleExchangeAck(context.Background(), &soap.Request{Envelope: decoded})
			}
			after := svc.Stats()
			if malformed && (err == nil || after.SharesAbsorbed != before.SharesAbsorbed || after.Commits != before.Commits || caller.acks != acks) {
				t.Fatalf("%s with a malformed child: err %v, stats %+v -> %+v", action, err, before, after)
			}
			if caller.acks > acks+1 {
				t.Fatalf("one exchange envelope answered by %d ack envelopes", caller.acks-acks)
			}
			if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
				t.Fatalf("%s: aggregate_mass_error = %g, want exactly 0\nbody: %q", action, e, children)
			}
		}
	})
}
