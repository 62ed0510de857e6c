package aggregate

import (
	"encoding/xml"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
)

// The one wire form of a push-sum share and its ack, on soap's flat-element
// codec (the contract of core/codec.go): each writer is byte-identical to
// xml.Marshal of the struct, omitted optional fields included; each reader
// accepts only that canonical form and otherwise reports false, on which the
// caller decodes with encoding/xml (FuzzExchangeRoundTrip pins both halves).
// The Service carries the block as a SOAP body, the SimNode as the bare
// transport.Message body.

var (
	shareName = xml.Name{Space: core.Namespace, Local: "AggregateShare"}
	ackName   = xml.Name{Space: core.Namespace, Local: "AggregateExchangeAck"}
)

// shareOverhead covers the markup and numbers of a typical windowed share in
// one allocation (the simulator holds every body until its delivery timer
// fires, so the buffer is not oversized for the rare share that also carries
// extremes, root and metric: append covers those, and escaped text).
// ackOverhead bounds an ack's markup and numbers outright.
const (
	shareOverhead = 320
	ackOverhead   = 168
)

// shareBlock writes sh as a body block.
func shareBlock(sh *Share) soap.Block {
	buf := make([]byte, 0, shareOverhead+len(sh.TaskID)+len(sh.Function)+len(sh.From)+len(sh.Root)+len(sh.Metric))
	buf = soap.AppendFlatOpen(buf, core.Namespace, "AggregateShare")
	buf = soap.AppendFlatText(buf, "TaskID", sh.TaskID)
	buf = soap.AppendFlatText(buf, "Function", sh.Function)
	buf = soap.AppendFlatText(buf, "From", sh.From)
	buf = soap.AppendFlatFloat(buf, "Sum", sh.Sum)
	buf = soap.AppendFlatFloat(buf, "Weight", sh.Weight)
	buf = soap.AppendFlatBool(buf, "HasExtremes", sh.HasExtremes)
	if sh.Min != 0 {
		buf = soap.AppendFlatFloat(buf, "Min", sh.Min)
	}
	if sh.Max != 0 {
		buf = soap.AppendFlatFloat(buf, "Max", sh.Max)
	}
	if sh.WindowMillis != 0 {
		buf = soap.AppendFlatInt(buf, "WindowMillis", sh.WindowMillis)
	}
	if sh.Epoch != 0 {
		buf = soap.AppendFlatUint(buf, "Epoch", sh.Epoch)
	}
	if sh.Seq != 0 {
		buf = soap.AppendFlatUint(buf, "Seq", sh.Seq)
	}
	if sh.Root != "" {
		buf = soap.AppendFlatText(buf, "Root", sh.Root)
	}
	if sh.Metric != "" {
		buf = soap.AppendFlatText(buf, "Metric", sh.Metric)
	}
	buf = soap.AppendFlatClose(buf, "AggregateShare")
	return soap.Block{XMLName: shareName, Raw: buf}
}

// scanShare reads a canonical share block. The optional children are probed
// for in order; one that is present but malformed is left unconsumed and
// fails the next read. The function, the sender, the root and the metric
// are drawn from what the deployment configures — its peers and its value
// sources — so each resolves through the intern table and a known one costs
// no allocation. The TaskID is copied: one is minted per coordination
// context, and a long-running node would fill the table with finished tasks.
func scanShare(raw []byte) (sh Share, ok bool) {
	r, ok := soap.OpenFlat(raw, core.Namespace, "AggregateShare")
	if !ok {
		return sh, false
	}
	sh.XMLName = shareName
	if sh.TaskID, ok = r.String("TaskID"); !ok {
		return sh, false
	}
	if sh.Function, ok = r.Symbol("Function"); !ok {
		return sh, false
	}
	if sh.From, ok = r.Symbol("From"); !ok {
		return sh, false
	}
	if sh.Sum, ok = r.Float("Sum"); !ok {
		return sh, false
	}
	if sh.Weight, ok = r.Float("Weight"); !ok {
		return sh, false
	}
	if sh.HasExtremes, ok = r.Bool("HasExtremes"); !ok {
		return sh, false
	}
	sh.Min, _ = r.Float("Min")
	sh.Max, _ = r.Float("Max")
	if w, ok := r.Int("WindowMillis"); ok {
		sh.WindowMillis = int64(w)
	}
	sh.Epoch, _ = r.Uint("Epoch")
	sh.Seq, _ = r.Uint("Seq")
	sh.Root, _ = r.Symbol("Root")
	sh.Metric, _ = r.Symbol("Metric")
	return sh, r.Close("AggregateShare")
}

// decodeShare decodes a share block: the canonical form in place, anything
// else through encoding/xml.
func decodeShare(raw []byte) (Share, error) {
	if sh, ok := scanShare(raw); ok {
		return sh, nil
	}
	var sh Share
	err := xml.Unmarshal(raw, &sh)
	return sh, err
}

// ackBlock writes a as a body block.
func ackBlock(a *ExchangeAck) soap.Block {
	buf := make([]byte, 0, ackOverhead+len(a.TaskID)+len(a.From))
	buf = soap.AppendFlatOpen(buf, core.Namespace, "AggregateExchangeAck")
	buf = soap.AppendFlatText(buf, "TaskID", a.TaskID)
	buf = soap.AppendFlatText(buf, "From", a.From)
	buf = soap.AppendFlatUint(buf, "Epoch", a.Epoch)
	buf = soap.AppendFlatUint(buf, "Seq", a.Seq)
	buf = soap.AppendFlatClose(buf, "AggregateExchangeAck")
	return soap.Block{XMLName: ackName, Raw: buf}
}

// scanAck reads a canonical ack block; its sender resolves through the
// intern table and its task is copied, as a share's are.
func scanAck(raw []byte) (a ExchangeAck, ok bool) {
	r, ok := soap.OpenFlat(raw, core.Namespace, "AggregateExchangeAck")
	if !ok {
		return a, false
	}
	a.XMLName = ackName
	if a.TaskID, ok = r.String("TaskID"); !ok {
		return a, false
	}
	if a.From, ok = r.Symbol("From"); !ok {
		return a, false
	}
	if a.Epoch, ok = r.Uint("Epoch"); !ok {
		return a, false
	}
	if a.Seq, ok = r.Uint("Seq"); !ok {
		return a, false
	}
	return a, r.Close("AggregateExchangeAck")
}

// decodeAck decodes an ack block: the canonical form in place, anything else
// through encoding/xml.
func decodeAck(raw []byte) (ExchangeAck, error) {
	if a, ok := scanAck(raw); ok {
		return a, nil
	}
	var a ExchangeAck
	err := xml.Unmarshal(raw, &a)
	return a, err
}

// bodyRaw returns the bytes of env's first body block, or nil for an empty
// body (which the decoders then report through encoding/xml).
func bodyRaw(env *soap.Envelope) []byte {
	if len(env.Body.Blocks) == 0 {
		return nil
	}
	return env.Body.Blocks[0].Raw
}
