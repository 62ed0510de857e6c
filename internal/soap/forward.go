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
// On an EncodedSender binding the copy is written once, from env's blocks
// straight into the pooled template Fanout renders from, and nothing else is
// built. A block the splice serializer declines, or a binding without
// SendEncoded, takes the slow path: a Snapshot of env re-headed with
// RemoveHeader, AddHeaderBlock and SetAddressingID, which puts the same bytes
// on the wire through Fanout, or through Send when Direct.
func Forward(ctx context.Context, caller Caller, env *Envelope, rh Rehead, block []byte, targets []string) (sent int, failed []string) {
	if es, ok := caller.(EncodedSender); ok {
		if tmpl, ok := rh.template(env, block); ok {
			defer putBytes(tmpl.pre)
			return tmpl.sendAll(ctx, es, targets)
		}
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

// drops reports whether the copy leaves out env's header block b: rh.apply
// removes it by name, or SetAddressingID replaces it.
func (rh *Rehead) drops(b Block) bool {
	return isAddressingName(b.XMLName) ||
		b.XMLName.Local == rh.Name.Local && (rh.Name.Space == "" || b.XMLName.Space == rh.Name.Space)
}

// template writes the re-headed copy of env as a fan-out template whose
// backing comes from the wire buffer pool, with the per-target To insertion
// point where rh.Direct puts it. ok=false when the splice serializer declines
// one of the blocks.
func (rh *Rehead) template(env *Envelope, block []byte) (WireTemplate, bool) {
	replacement := Block{XMLName: rh.Name, Raw: block}
	var stack [splicePlanStack]spliceParts
	plan := stack[:0]
	size := 0
	for _, b := range env.headerBlocks() {
		if rh.drops(b) {
			continue
		}
		inject, at, ok := blockSplice(b)
		if !ok {
			return WireTemplate{}, false
		}
		plan = append(plan, spliceParts{inject: inject, insertAt: at})
		size += len(b.Raw) + len(inject)
	}
	inject, at, ok := blockSplice(replacement)
	if !ok {
		return WireTemplate{}, false
	}
	plan = append(plan, spliceParts{inject: inject, insertAt: at})
	size += len(block) + len(inject)
	for _, b := range env.Body.Blocks {
		inject, at, ok := blockSplice(b)
		if !ok {
			return WireTemplate{}, false
		}
		plan = append(plan, spliceParts{inject: inject, insertAt: at})
		size += len(b.Raw) + len(inject)
	}
	// The properties SetAddressingID writes, and skips when empty.
	var props [2]addressingProp
	addr := props[:0]
	if rh.Action != "" {
		addr = append(addr, addressingProp{local: "Action", value: rh.Action})
	}
	if len(rh.ID) > 0 {
		addr = append(addr, addressingProp{local: "MessageID", id: rh.ID})
	}
	for _, p := range addr {
		size += p.size()
	}

	backing := getBytes(len(xml.Header) + len(wireEnvOpen) + len(wireHeaderOpen) + len(wireHeaderClose) +
		len(wireBodyOpen) + len(wireBodyClose) + len(wireEnvClose) + size)
	backing = append(backing, xml.Header...)
	backing = append(backing, wireEnvOpen...)
	backing = append(backing, wireHeaderOpen...)
	for _, b := range env.headerBlocks() {
		if !rh.drops(b) {
			backing = appendBlock(backing, b, plan[0])
			plan = plan[1:]
		}
	}
	backing = appendBlock(backing, replacement, plan[0])
	plan = plan[1:]
	split := len(backing)
	for _, p := range addr {
		backing = p.append(backing)
	}
	if !rh.Direct {
		split = len(backing)
	}
	backing = append(backing, wireHeaderClose...)
	backing = append(backing, wireBodyOpen...)
	backing = appendBlocks(backing, env.Body.Blocks, plan)
	backing = append(backing, wireBodyClose...)
	backing = append(backing, wireEnvClose...)
	return WireTemplate{pre: backing[:split], post: backing[split:]}, true
}
