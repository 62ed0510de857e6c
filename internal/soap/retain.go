package soap

import (
	"encoding/xml"
	"slices"
)

// Retained is a received envelope's copy as a store keeps it to retransmit
// later: what a retransmission reads of it — every header block but the
// WS-Addressing properties Forward drops and writes anew, the wsa:MessageID
// that names the message kept among them, and the body — with every
// kept block's bytes in one slab the Retained owns. Retain refills it in
// place, reusing its block list and slab whenever they are large enough, so a
// store that refills the slot of the entry it evicts allocates nothing in
// steady state. The zero value is an empty copy.
type Retained struct {
	env    Envelope
	header Header
	blocks []Block // the kept header blocks, then the body blocks
	slab   []byte  // every kept block's bytes
}

// Envelope returns the copy. It stays r's: the next Retain rewrites it.
func (r *Retained) Envelope() *Envelope { return &r.env }

// Retain makes r a copy of src, leaving out src's WS-Addressing properties
// but its wsa:MessageID (Envelope.MessageIDKey reads the copy's), and the
// header blocks named leave (a Local "" names none): a block the store's
// owner keeps one copy of itself and writes on each retransmission.
// Nothing of src is referenced afterwards, so src's receive buffer may be
// recycled. The block list grows only when src has more blocks than any copy
// r held before, and the slab only when src's kept bytes outgrow it; a new
// slab takes its whole size class, so copies of nearly the same size keep
// refilling it.
func (r *Retained) Retain(src *Envelope, leave xml.Name) {
	n, size := len(src.Body.Blocks), 0
	for _, b := range src.headerBlocks() {
		if retained(b, leave) {
			n++
			size += len(b.Raw)
		}
	}
	for _, b := range src.Body.Blocks {
		size += len(b.Raw)
	}
	if cap(r.blocks) < n {
		r.blocks = make([]Block, n)
	}
	if cap(r.slab) < size {
		r.slab = slices.Grow([]byte(nil), size)
	}
	blocks, slab := r.blocks[:0], r.slab[:0]
	keep := func(b Block) {
		start := len(slab)
		slab = append(slab, b.Raw...)
		blocks = append(blocks, Block{XMLName: b.XMLName, Raw: slab[start:len(slab):len(slab)]})
	}
	for _, b := range src.headerBlocks() {
		if retained(b, leave) {
			keep(b)
		}
	}
	nh := len(blocks)
	for _, b := range src.Body.Blocks {
		keep(b)
	}
	// The blocks past this copy's keep no bytes of an earlier one alive.
	clear(r.blocks[len(blocks):cap(r.blocks)])

	r.env.XMLName = src.XMLName
	r.env.Header = nil
	if src.Header != nil {
		r.header = Header{XMLName: src.Header.XMLName, Blocks: blocks[:nh:nh]}
		r.env.Header = &r.header
	}
	r.env.Body = Body{XMLName: src.Body.XMLName, Blocks: slices.Clip(blocks[nh:])}
	r.env.addr.Store(nil) // the addressing blocks are gone; a read parses what is left
}

// retained reports whether Retain, leaving out the blocks named leave, keeps
// the header block b.
func retained(b Block, leave xml.Name) bool {
	if leave.Local != "" && b.XMLName == leave {
		return false
	}
	return !isAddressingName(b.XMLName) || b.XMLName.Local == "MessageID"
}
