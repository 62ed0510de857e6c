package soap

import (
	"context"
	"encoding/xml"
)

// Rehead is how Forward re-heads a received envelope for another transfer:
// one header block replaced, a second one left out or written anew, and the
// WS-Addressing properties written anew.
type Rehead struct {
	// Name is the replaced block's: the copy leaves out every header block
	// of this name, and carries Forward's block after the blocks it keeps.
	Name xml.Name
	// Lead, when named, is a second block the copy leaves out of env's
	// header by name; when it has bytes, the copy carries it just before
	// Forward's block. A caller that keeps one copy of a block and puts it on
	// some copies only (a coordination context) writes it from here.
	Lead Block
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
// named rh.Name or rh.Lead's name, verbatim and in order, then rh.Lead when
// it has bytes, then block (an element named rh.Name), then Action and
// MessageID, plus each target's To (see Rehead.Direct); its body is env's.
// It returns what Fanout returns, a block the splice writer declines failing
// every target. block is read during the call only, so it may live in
// scratch on the caller's stack: it is a parameter of its own, apart from rh,
// because escape analysis would send it to the heap with rh's strings.
//
// The copy is written once, from env's blocks straight into the pooled
// template Fanout renders from, and nothing else is built.
func Forward(ctx context.Context, caller Caller, env *Envelope, rh Rehead, block []byte, targets []string) (sent int, failed []string) {
	own := [2]Block{rh.Lead, {XMLName: rh.Name, Raw: block}}
	owned := own[:]
	if rh.Lead.Raw == nil {
		owned = own[1:]
	}
	d := draft{
		lead: env.headerBlocks(), drop: [2]xml.Name{rh.Name, rh.Lead.XMLName}, dropAddressing: true,
		own:    owned,
		action: rh.Action, id: rh.ID,
		body:   env.Body.Blocks,
		header: true, splitAtAddressing: rh.Direct,
	}
	return d.fanout(ctx, caller, targets)
}
