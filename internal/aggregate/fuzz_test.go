package aggregate

import (
	"bytes"
	"encoding/xml"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

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
		flatMatchesXML(t, &in, shareRaw, func(raw []byte) (any, error) { return decodeShare(raw) })
		flatMatchesXML(t, &ack, ackRaw, func(raw []byte) (any, error) { return decodeAck(raw) })
		// The fast reader must take what the writer emits (a window beyond
		// nine digits is the one canonical share it leaves to encoding/xml).
		if _, ok := scanShare(shareRaw); !ok && windowMillis > -1e9 && windowMillis < 1e9 {
			t.Fatalf("flat reader declined its own writer's share: %q", shareRaw)
		}
		if _, ok := scanAck(ackRaw); !ok {
			t.Fatalf("flat reader declined its own writer's ack: %q", ackRaw)
		}
		cctx := wscoord.CoordinationContext{
			Identifier:          "urn:fuzz:task",
			CoordinationType:    "urn:fuzz:type",
			RegistrationService: wscoord.ServiceRef{Address: "mem://reg"},
		}
		env, err := newMessage(ActionExchange, contextBlock(cctx))
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
		out, err := decodeShare(bodyRaw(decoded))
		if err != nil {
			t.Fatalf("decode body: %v\nwire: %q", err, data)
		}
		out.XMLName = in.XMLName
		if out != in {
			t.Fatalf("share round trip mismatch:\n in: %+v\nout: %+v\nwire: %q", in, out, data)
		}
	})
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
