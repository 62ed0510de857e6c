package gossip

import (
	"encoding/binary"
	"errors"
	"math"
)

// The engine's wire form. The body of a transport.Message is opaque to
// everything but the engine, so there is one codec and no foreign peer to stay
// compatible with:
//
//	body  = kind uvarint(count) entry*
//	rumor = field(id) field(origin) uvarint(hops) field(payload)   kind = wireRumors
//	ref   = field(id) uvarint(hops)                                kind = wireRefs
//	pull  = kind truncated field(sums)                             kind = wirePull
//	field = uvarint(len) byte*len
//
// Push and pull-response bodies carry rumors; IHAVE and IWANT bodies carry
// refs. A pull request is the digest a SOAP node sends too: the sums of the
// newest held IDs, 8 big-endian bytes each (store.Digest), at most DigestCap
// of them, and a truncated byte, 0 or 1. Uvarints are minimal (a decoder
// accepts exactly the bytes an encoder writes), a negative hop budget travels
// as 0 (every hop test in the engine is "> 0"), and a count or length larger
// than the bytes that remain is rejected before anything is built from it.
const (
	wireRumors byte = 1
	wireRefs   byte = 2
	wirePull   byte = 3
)

// maxWireHops bounds a decoded hop budget so it fits an int everywhere.
const maxWireHops = math.MaxInt32

func wireHops(h int) uint64 {
	if h < 0 {
		return 0
	}
	return uint64(h)
}

// The writers append to a caller's buffer: the engine writes every body into
// a pooled one (engine.go, bodyPool).

// appendBatch appends the head of a batch of n entries of kind.
func appendBatch(dst []byte, kind byte, n int) []byte {
	return binary.AppendUvarint(append(dst, kind), uint64(n))
}

// appendRumor appends one rumor entry.
func appendRumor(dst []byte, v rumorView) []byte {
	dst = appendField(dst, v.id)
	dst = appendField(dst, v.origin)
	dst = binary.AppendUvarint(dst, wireHops(v.hops))
	return appendField(dst, v.payload)
}

// appendRef appends one reference entry.
func appendRef(dst, id []byte, hops int) []byte {
	return binary.AppendUvarint(appendField(dst, id), wireHops(hops))
}

func appendField(dst, f []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(f))), f...)
}

// appendPull appends a pull request listing sums, a digest's big-endian
// bytes.
func appendPull(dst, sums []byte, truncated bool) []byte {
	flag := byte(0)
	if truncated {
		flag = 1
	}
	return appendField(append(dst, wirePull, flag), sums)
}

// readPull validates a pull request whole and reads its sums into scratch.
func readPull(scratch *[DigestCap]uint64, body []byte) (sums []uint64, truncated bool, err error) {
	if len(body) == 0 {
		return nil, false, errWireEmpty
	}
	if body[0] != wirePull {
		return nil, false, errWireKind
	}
	if len(body) < 2 || body[1] > 1 {
		return nil, false, errWireFlag
	}
	rd := wireReader{rest: body[2:]}
	raw, ok := rd.field()
	if !ok {
		return nil, false, errWireEntry
	}
	if len(rd.rest) != 0 {
		return nil, false, errWireTrailing
	}
	sums, err = ParseSums(scratch, raw)
	return sums, body[1] == 1, err
}

// The view reader. Handlers never decode a body into a struct: they walk it
// with a wireReader whose views alias msg.Body.
//
// Ownership rule: a view dies with the handler call that read it, since
// msg.Body is valid only during the call (transport.Message). The Machine is
// asked with the sum of a view's ID and keeps nothing of it; what reaches the
// store is a copy in a slot's own slab (held), and what reaches Deliver is
// built from that slot. So a duplicate — two receipts in three under push —
// builds nothing at all, and nothing the engine retains pins a message body.

// rumorView is one rumor as it lies in a message body or a held slab.
type rumorView struct {
	id, origin, payload []byte
	hops                int
}

// refView is one rumor reference as it lies in a message body.
type refView struct {
	id   []byte
	hops int
}

// wireReader iterates the entries of a body that readWire has validated
// end to end, so a handler's loop (for rd.n > 0) meets no malformed tail after
// its first state change and may ignore the ok results.
type wireReader struct {
	rest []byte
	n    int // entries not yet read
}

// readWire validates the whole of body as a batch of the given kind and
// returns a reader positioned at its first entry.
func readWire(body []byte, kind byte) (wireReader, error) {
	if len(body) == 0 {
		return wireReader{}, errWireEmpty
	}
	if body[0] != kind {
		return wireReader{}, errWireKind
	}
	rd := wireReader{rest: body[1:]}
	count, ok := rd.uvarint()
	// Every entry takes at least two bytes, so this also keeps count an int.
	if !ok || count > uint64(len(rd.rest)) {
		return wireReader{}, errWireCount
	}
	rd.n = int(count)
	walk := rd
	for walk.n > 0 {
		if kind == wireRumors {
			_, ok = walk.rumor()
		} else {
			_, ok = walk.ref()
		}
		if !ok {
			return wireReader{}, errWireEntry
		}
	}
	if len(walk.rest) != 0 {
		return wireReader{}, errWireTrailing
	}
	return rd, nil
}

// Rejections are fixed values: a peer sending junk costs the receiver no
// allocation either.
var (
	errWireEmpty    = errors.New("gossip: decode wire message: empty body")
	errWireKind     = errors.New("gossip: decode wire message: not the kind of batch this action carries")
	errWireCount    = errors.New("gossip: decode wire message: bad entry count")
	errWireEntry    = errors.New("gossip: decode wire message: truncated or malformed entry")
	errWireTrailing = errors.New("gossip: decode wire message: trailing bytes")
	errWireFlag     = errors.New("gossip: decode wire message: truncated flag is neither 0 nor 1")
)

// uvarint reads one minimally encoded uvarint.
func (r *wireReader) uvarint() (uint64, bool) {
	x, n := binary.Uvarint(r.rest)
	if n <= 0 || (n > 1 && r.rest[n-1] == 0) {
		return 0, false
	}
	r.rest = r.rest[n:]
	return x, true
}

// field reads one length-prefixed byte string as a view.
func (r *wireReader) field() ([]byte, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.rest)) {
		return nil, false
	}
	f := r.rest[:n:n]
	r.rest = r.rest[n:]
	return f, true
}

func (r *wireReader) hops() (int, bool) {
	h, ok := r.uvarint()
	return int(h), ok && h <= maxWireHops
}

// rumor reads the next rumor entry.
func (r *wireReader) rumor() (v rumorView, ok bool) {
	if v.id, ok = r.field(); !ok {
		return v, false
	}
	if v.origin, ok = r.field(); !ok {
		return v, false
	}
	if v.hops, ok = r.hops(); !ok {
		return v, false
	}
	v.payload, ok = r.field()
	r.n--
	return v, ok
}

// ref reads the next reference entry.
func (r *wireReader) ref() (v refView, ok bool) {
	if v.id, ok = r.field(); !ok {
		return v, false
	}
	v.hops, ok = r.hops()
	r.n--
	return v, ok
}
