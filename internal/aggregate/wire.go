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
// The Service carries the blocks as the children of a SOAP body — every share
// a round has for one peer in one envelope, and every ack for it in one
// answer — the SimNode one block as the bare transport.Message body.

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

// shareSize is the buffer a share's block is written into.
func shareSize(sh *Share) int {
	return shareOverhead + len(sh.TaskID) + len(sh.Function) + len(sh.From) + len(sh.Root) + len(sh.Metric)
}

// appendShare appends sh's block to buf.
func appendShare(buf []byte, sh *Share) []byte {
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
	return soap.AppendFlatClose(buf, "AggregateShare")
}

// shareBlock writes sh as a body block.
func shareBlock(sh *Share) soap.Block {
	return soap.Block{XMLName: shareName, Raw: appendShare(make([]byte, 0, shareSize(sh)), sh)}
}

// scanShare reads a canonical share block. The optional children are probed
// for in order; one that is present but malformed is left unconsumed and
// fails the next read. The function, the sender, the root and the metric
// are drawn from what the deployment configures — its peers and its value
// sources — so each resolves through the intern table and a known one costs
// no allocation. The TaskID is neither interned nor copied: one is minted per
// coordination context, and a long-running node would fill the table with
// finished tasks. It comes back as id, in place (FlatText.Key: a view into
// raw unless escaped), and sh.TaskID stays empty: a binding looks its task up
// with id, and only a share that creates a task copies it.
func scanShare(raw []byte) (sh Share, id []byte, ok bool) {
	r, ok := soap.OpenFlat(raw, core.Namespace, "AggregateShare")
	if !ok {
		return sh, nil, false
	}
	sh.XMLName = shareName
	text, ok := r.Text("TaskID")
	if !ok {
		return sh, nil, false
	}
	if sh.Function, ok = r.Symbol("Function"); !ok {
		return sh, nil, false
	}
	if sh.From, ok = r.Symbol("From"); !ok {
		return sh, nil, false
	}
	if sh.Sum, ok = r.Float("Sum"); !ok {
		return sh, nil, false
	}
	if sh.Weight, ok = r.Float("Weight"); !ok {
		return sh, nil, false
	}
	if sh.HasExtremes, ok = r.Bool("HasExtremes"); !ok {
		return sh, nil, false
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
	if !r.Close("AggregateShare") {
		return sh, nil, false
	}
	return sh, text.Key(), true
}

// decodeShare decodes a share block: the canonical form in place, anything
// else through encoding/xml. Either way the TaskID comes back as id and
// sh.TaskID is empty (see scanShare).
func decodeShare(raw []byte) (Share, []byte, error) {
	if sh, id, ok := scanShare(raw); ok {
		return sh, id, nil
	}
	var sh Share
	err := xml.Unmarshal(raw, &sh)
	id := []byte(sh.TaskID)
	sh.TaskID = ""
	return sh, id, err
}

// ackSize is the buffer an ack's block is written into.
func ackSize(a *ExchangeAck) int { return ackOverhead + len(a.TaskID) + len(a.From) }

// appendAck appends a's block to buf.
func appendAck(buf []byte, a *ExchangeAck) []byte {
	buf = soap.AppendFlatOpen(buf, core.Namespace, "AggregateExchangeAck")
	buf = soap.AppendFlatText(buf, "TaskID", a.TaskID)
	buf = soap.AppendFlatText(buf, "From", a.From)
	buf = soap.AppendFlatUint(buf, "Epoch", a.Epoch)
	buf = soap.AppendFlatUint(buf, "Seq", a.Seq)
	return soap.AppendFlatClose(buf, "AggregateExchangeAck")
}

// ackBlock writes a as a body block.
func ackBlock(a *ExchangeAck) soap.Block {
	return soap.Block{XMLName: ackName, Raw: appendAck(make([]byte, 0, ackSize(a)), a)}
}

// scanAck reads a canonical ack block; its sender resolves through the
// intern table and its task comes back in place as id, as a share's does.
func scanAck(raw []byte) (a ExchangeAck, id []byte, ok bool) {
	r, ok := soap.OpenFlat(raw, core.Namespace, "AggregateExchangeAck")
	if !ok {
		return a, nil, false
	}
	a.XMLName = ackName
	text, ok := r.Text("TaskID")
	if !ok {
		return a, nil, false
	}
	if a.From, ok = r.Symbol("From"); !ok {
		return a, nil, false
	}
	if a.Epoch, ok = r.Uint("Epoch"); !ok {
		return a, nil, false
	}
	if a.Seq, ok = r.Uint("Seq"); !ok {
		return a, nil, false
	}
	if !r.Close("AggregateExchangeAck") {
		return a, nil, false
	}
	return a, text.Key(), true
}

// decodeAck decodes an ack block: the canonical form in place, anything else
// through encoding/xml; the TaskID comes back as id, as decodeShare's does.
func decodeAck(raw []byte) (ExchangeAck, []byte, error) {
	if a, id, ok := scanAck(raw); ok {
		return a, id, nil
	}
	var a ExchangeAck
	err := xml.Unmarshal(raw, &a)
	id := []byte(a.TaskID)
	a.TaskID = ""
	return a, id, err
}
