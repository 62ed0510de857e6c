package soap

import (
	"math/bits"
	"sync"
)

// Size-classed byte-buffer pool for the wire path. Rendered fan-out
// messages (RenderTo) and transport receive buffers (the MemBus delivery
// queue, the HTTP server's request reader) draw from and return to these
// pools, so a steady-state gossip wave stops allocating per message.
//
// Ownership discipline: a buffer may be recycled only by the party that
// provably holds the last reference. SendEncoded hands ownership to the
// binding, and a handler must not retain its request envelope (or any
// Block.Raw slice of it) past HandleSOAP returning — retention requires a
// copy (Envelope.Clone, or a Retained refilled in place). Under that contract MemBus recycles each one-way
// delivery buffer exactly once, after the handler returns, and the HTTP
// server recycles its request-read buffer once the response is written;
// each recycles the decoded request (receivedPool) at the same point. A
// handler that panics leaves both to the GC.
// HTTPClient.SendEncoded recycles the buffer of a send answered 2xx, once it
// has sealed the request body it handed the transport: net/http may go on
// reading a body after RoundTrip returns, and after the seal every read
// reports EOF without touching the buffer. A failed send's buffer stays
// with its caller, unrecycled.

const (
	minBufBits = 9  // smallest pooled class: 512 B
	maxBufBits = 20 // largest pooled class: 1 MiB
)

// A sync.Pool holds pointers, so a pooled buffer rides in a *[]byte holder.
// Holders circulate instead of being allocated per put: a get hands the
// emptied holder of the buffer it takes to holders, and a put takes one
// from there, so a hit in either direction allocates nothing.
var (
	bytePools [maxBufBits - minBufBits + 1]sync.Pool // of holders with a buffer
	holders   sync.Pool                              // of empty holders
)

// getBytes returns a zero-length buffer with capacity at least n. A miss
// allocates the whole size class (1<<c), not n: putBytes files a buffer
// under floor(log2 cap), so a cap-n buffer would land one class below the
// one the next get of the same size looks in and the pool would never hit.
func getBytes(n int) []byte {
	c := bits.Len(uint(n - 1)) // ceil(log2 n); n<=1 yields 0
	if c < minBufBits {
		c = minBufBits
	}
	if c > maxBufBits {
		countPoolGet(false)
		return make([]byte, 0, n)
	}
	if v := bytePools[c-minBufBits].Get(); v != nil {
		countPoolGet(true)
		h := v.(*[]byte)
		b := (*h)[:0]
		*h = nil
		holders.Put(h)
		return b
	}
	countPoolGet(false)
	return make([]byte, 0, 1<<c)
}

// putBytes recycles a buffer. Callers must hold the only live reference;
// see the ownership discipline above. Off-class capacities are dropped.
func putBytes(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 // floor(log2 cap)
	if c < minBufBits || c > maxBufBits {
		return
	}
	h, _ := holders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	bytePools[c-minBufBits].Put(h)
}
