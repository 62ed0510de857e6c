package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"sync"
)

// The one encoding/xml writer: every block the stack marshals from a Go value
// — an application's notification body, a coordination context, a SOAP
// fault, the request-response bodies — goes through a pooled xml.Encoder
// whose writer appends to a caller's slice. A fresh xml.Marshal pays for the
// encoder, its 4 KiB bufio.Writer, its tag and prefix stacks and a
// bytes.Buffer on every call; a pooled one pays for none of them. Two facts
// about encoding/xml make reuse unsafe if done naively:
//
//   - Encode does not flush on error: what it wrote before the failure stays
//     in the bufio.Writer, and would lead the next value's bytes;
//   - the printer's seq, which numbers an attribute-namespace prefix whose
//     name collides with one already declared (createAttrPrefix), is never
//     reset: the next value that collides would get x_2 where xml.Marshal
//     writes x_1.
//
// So an encoder goes back to the pool only when Encode succeeded and its
// output declares no xmlns: prefix (seq moves only when a prefix is
// declared), and only when the value's type holds no xml.Marshaler, whose
// MarshalXML is handed the encoder itself and may Close it or set its
// Indent. Under that rule the pooled output is xml.Marshal(v)'s, byte for
// byte, for every value (FuzzMarshalBlock).

// marshaler is a pooled xml.Encoder and the slice its writes append to.
type marshaler struct {
	enc *xml.Encoder
	out []byte
	// scratch is MarshalBlock's buffer, kept between calls while it stays
	// under maxScratch.
	scratch []byte
}

// maxScratch is the largest MarshalBlock buffer a pooled marshaler keeps.
const maxScratch = 64 << 10

// Write appends p to the slice the current call marshals into.
func (m *marshaler) Write(p []byte) (int, error) {
	m.out = append(m.out, p...)
	return len(p), nil
}

var marshalers = sync.Pool{New: func() any {
	m := new(marshaler)
	m.enc = xml.NewEncoder(m)
	return m
}}

// prefixDecl is what the encoder writes when it declares an attribute prefix.
var prefixDecl = []byte("xmlns:")

// encode appends xml.Marshal(v)'s bytes to dst. reusable reports whether m
// may go back to the pool, by the rule above; the caller puts it back once it
// is done with m.scratch.
func (m *marshaler) encode(dst []byte, v any) (out []byte, reusable bool, err error) {
	m.out = dst
	err = m.enc.Encode(v)
	out, m.out = m.out, nil
	reusable = err == nil && !bytes.Contains(out[len(dst):], prefixDecl) && poolable(v)
	if err != nil {
		return nil, reusable, fmt.Errorf("soap: marshal block: %w", err)
	}
	return out, reusable, nil
}

// AppendMarshal appends the XML encoding of v — xml.Marshal(v)'s bytes — to
// dst and returns them as a Block whose Raw is the appended part, sharing
// dst's backing array, or the larger one the append moved to: with an empty
// dst, Raw[:0] is the buffer to reuse. It is MarshalBlock for a caller that
// sends the block straight away from scratch of its own, and so allocates
// nothing while dst has room.
func AppendMarshal(dst []byte, v any) (Block, error) {
	m := marshalers.Get().(*marshaler)
	out, reusable, err := m.encode(dst, v)
	if reusable {
		marshalers.Put(m)
	}
	if err != nil {
		return Block{}, err
	}
	return rawBlock(out[len(dst):])
}

// MarshalBlock marshals v into a captured Block — what AddHeader and SetBody
// attach, for a caller that attaches the same value to many envelopes and
// marshals it once (AddHeaderBlock, SetBodyBlock). It is xml.Marshal(v)'s
// bytes, written by a pooled encoder into its pooled scratch and copied out
// exactly sized: the copy is its one allocation, and the block's name
// another when the intern table does not hold it.
func MarshalBlock(v any) (Block, error) {
	m := marshalers.Get().(*marshaler)
	out, reusable, err := m.encode(m.scratch[:0], v)
	var raw []byte
	if err == nil {
		raw = make([]byte, len(out))
		copy(raw, out)
	}
	if reusable {
		if cap(out) <= maxScratch {
			m.scratch = out[:0]
		}
		marshalers.Put(m)
	}
	if err != nil {
		return Block{}, err
	}
	return rawBlock(raw)
}

// rawBlock names the single element in raw. The name is read off the start
// tag (blockName); only output the byte walk declines is parsed a second
// time to learn it.
func rawBlock(raw []byte) (Block, error) {
	if name, ok := blockName(raw); ok {
		return Block{XMLName: name, Raw: raw}, nil
	}
	var probe struct {
		XMLName xml.Name
	}
	if err := xml.Unmarshal(raw, &probe); err != nil {
		return Block{}, fmt.Errorf("soap: probe block name: %w", err)
	}
	return Block{XMLName: probe.XMLName, Raw: raw}, nil
}

// poolable reports whether no value of v's type can reach an xml.Marshaler,
// the one kind of value encoding/xml hands its encoder to. The answer is
// kept per type.
func poolable(v any) bool {
	t := reflect.TypeOf(v)
	if t == nil {
		return true
	}
	if ok, seen := poolableTypes.Load(t); seen {
		return ok.(bool)
	}
	ok := marshalerFree(t, map[reflect.Type]bool{})
	poolableTypes.Store(t, ok)
	return ok
}

var (
	poolableTypes sync.Map // reflect.Type → bool
	marshalerType = reflect.TypeFor[xml.Marshaler]()
)

// marshalerFree reports whether t, and every type a value of t holds, is no
// xml.Marshaler; an interface may hold one, so it is not. visiting breaks
// the walk's cycles through recursive types.
func marshalerFree(t reflect.Type, visiting map[reflect.Type]bool) bool {
	if visiting[t] {
		return true
	}
	visiting[t] = true
	if t.Implements(marshalerType) || reflect.PointerTo(t).Implements(marshalerType) {
		return false
	}
	switch t.Kind() {
	case reflect.Interface:
		return false
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		return marshalerFree(t.Elem(), visiting)
	case reflect.Struct:
		for i := range t.NumField() {
			if !marshalerFree(t.Field(i).Type, visiting) {
				return false
			}
		}
	}
	return true
}
