package soap

import (
	"bytes"
	"context"
	"encoding/xml"

	"wsgossip/internal/wsa"
)

// Rehead is how Forward re-heads a received envelope for another transfer:
// one header block replaced, and the WS-Addressing properties written anew.
type Rehead struct {
	// Name is the replaced block's: the copy leaves out every header block
	// of this name, and carries Forward's block after the blocks it keeps.
	Name xml.Name
	// Action is the wsa:Action property, written after the block.
	Action string
	// ID is the wsa:MessageID property's text, written after Action: an
	// identifier read in place from a received header needs no string.
	ID []byte
	// Direct marks a retransmission addressed to one peer: each copy's wsa:To
	// goes before Action, where SetAddressing writes it, instead of at the end
	// of the header, where Fanout renders it.
	Direct bool
}

// Forward sends a re-headed copy of env to every target. The copy's header
// is env's header blocks other than the WS-Addressing properties and those
// named rh.Name, verbatim and in order, then block (an element named
// rh.Name), then Action and MessageID, plus each target's To (see
// Rehead.Direct); its body is env's. It returns what Fanout returns. block is
// read during the call only, so it may live in scratch on the caller's stack:
// it is a parameter of its own, apart from rh, because escape analysis would
// send it to the heap with rh's strings.
//
// The copy is written once, from env's blocks straight into the pooled
// template Fanout renders from, and nothing else is built. A block the
// splice serializer declines takes the slow path: a Snapshot of env
// re-headed with RemoveHeader, AddHeaderBlock and SetAddressingID, which puts
// the same bytes on the wire through Fanout, or through Send when Direct.
func Forward(ctx context.Context, caller Caller, env *Envelope, rh Rehead, block []byte, targets []string) (sent int, failed []string) {
	if tmpl, ok := rh.template(env, block); ok {
		defer putBytes(tmpl.pre)
		return tmpl.sendAll(ctx, caller, targets)
	}
	if !rh.Direct {
		return Fanout(ctx, caller, rh.apply(env, block, ""), targets)
	}
	for i, to := range targets {
		if ctx.Err() != nil {
			return sent, append(failed, targets[i:]...)
		}
		if err := caller.Send(ctx, to, rh.apply(env, block, to)); err != nil {
			failed = append(failed, to)
			continue
		}
		sent++
	}
	return sent, failed
}

// apply is the slow path's re-head: a Snapshot of env with rh and a copy of
// block written into it, addressed to to (empty for a fan-out, which renders
// To per target).
func (rh *Rehead) apply(env *Envelope, block []byte, to string) *Envelope {
	out := env.Snapshot()
	out.RemoveHeader(rh.Name.Space, rh.Name.Local)
	out.AddHeaderBlock(Block{XMLName: rh.Name, Raw: bytes.Clone(block)})
	out.SetAddressingID(wsa.Headers{To: to, Action: rh.Action}, rh.ID)
	return out
}

// template writes the re-headed copy of env as a fan-out template whose
// backing comes from the wire buffer pool, with the per-target To insertion
// point where rh.Direct puts it. ok=false when the splice serializer declines
// one of the blocks.
func (rh *Rehead) template(env *Envelope, block []byte) (WireTemplate, bool) {
	d := draft{
		lead: env.headerBlocks(), drop: rh.Name, dropAddressing: true,
		own:    []Block{{XMLName: rh.Name, Raw: block}},
		action: rh.Action, id: rh.ID,
		body:   env.Body.Blocks,
		header: true, splitAtAddressing: rh.Direct,
	}
	return d.template(true)
}
