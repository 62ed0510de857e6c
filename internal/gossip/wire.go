package gossip

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
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

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

func wireHops(h int) uint64 {
	if h < 0 {
		return 0
	}
	return uint64(h)
}

// encodeRumors renders a rumor batch into one exactly-sized buffer.
func encodeRumors(rs ...Rumor) []byte {
	size := 1 + uvarintLen(uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		size += fieldLen(len(r.ID)) + fieldLen(len(r.Origin)) + uvarintLen(wireHops(r.Hops)) + fieldLen(len(r.Payload))
	}
	b := make([]byte, 0, size)
	b = append(b, wireRumors)
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		b = binary.AppendUvarint(b, uint64(len(r.ID)))
		b = append(b, r.ID...)
		b = binary.AppendUvarint(b, uint64(len(r.Origin)))
		b = append(b, r.Origin...)
		b = binary.AppendUvarint(b, wireHops(r.Hops))
		b = binary.AppendUvarint(b, uint64(len(r.Payload)))
		b = append(b, r.Payload...)
	}
	return b
}

// encodeRefs renders a reference batch into one exactly-sized buffer.
func encodeRefs(refs ...RumorRef) []byte {
	size := 1 + uvarintLen(uint64(len(refs)))
	for i := range refs {
		size += fieldLen(len(refs[i].ID)) + uvarintLen(wireHops(refs[i].Hops))
	}
	b := make([]byte, 0, size)
	b = append(b, wireRefs)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for i := range refs {
		b = binary.AppendUvarint(b, uint64(len(refs[i].ID)))
		b = append(b, refs[i].ID...)
		b = binary.AppendUvarint(b, wireHops(refs[i].Hops))
	}
	return b
}

// encodePull renders a pull request listing sums, a digest's big-endian
// bytes.
func encodePull(sums []byte, truncated bool) []byte {
	b := make([]byte, 0, 2+fieldLen(len(sums)))
	b = append(b, wirePull, 0)
	if truncated {
		b[1] = 1
	}
	b = binary.AppendUvarint(b, uint64(len(sums)))
	return append(b, sums...)
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
// Ownership rule: a view dies with the handler call that read it. The
// Machine is asked with the sum of a view's ID and keeps nothing of it;
// anything that reaches the store or Deliver is an owned copy
// (rumorView.rumor). So a duplicate — two receipts in three under push —
// builds nothing at all, and nothing the engine retains pins a message body.

// rumorView is one rumor as it lies in a message body.
type rumorView struct {
	id, origin, payload []byte
	hops                int
}

// rumor returns the owned copy of v: two strings and, if there is one, the
// payload.
func (v rumorView) rumor() Rumor {
	r := Rumor{ID: string(v.id), Origin: string(v.origin), Hops: v.hops}
	if len(v.payload) > 0 {
		r.Payload = append([]byte(nil), v.payload...)
	}
	return r
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
