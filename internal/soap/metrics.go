package soap

import (
	"sync/atomic"

	"wsgossip/internal/metrics"
)

// Wire-path instrumentation. The two decode rungs, the buffer pools, and the
// encode-once fan-out renderer are package-level machinery with no config
// object to thread a registry through, so the instrumentation point is
// process-global: InstallWireMetrics resolves every series once and
// publishes them behind one atomic pointer. Uninstrumented processes pay a
// single atomic load plus a nil check per event; instrumented ones add only
// the counters' atomic ops — no map lookups, no allocations — which keeps
// the decode and fan-out paths inside their alloc budgets.

// wireMetrics holds the pre-resolved series for the wire hot paths.
type wireMetrics struct {
	decodeScanner  *metrics.Counter // decode rung taken: hand-rolled scanner
	decodeLegacy   *metrics.Counter // decode rung taken: encoding/xml fallback
	poolHit        *metrics.Counter // getBytes served from a pool
	poolMiss       *metrics.Counter // getBytes fell back to make
	bytesIn        *metrics.Counter // serialized bytes entering Decode
	bytesOut       *metrics.Counter // serialized bytes produced for sending
	envelopeSize   *metrics.BucketHistogram
	decodeOversize *metrics.Counter // Decode rejected: envelope over the size cap
	decodeBad      *metrics.Counter // Decode rejected: malformed for encoding/xml too
	rejectOversize *metrics.Counter // HTTP inbound rejected before decode: oversized
	rejectTruncate *metrics.Counter // HTTP inbound rejected before decode: truncated body
	rejectRead     *metrics.Counter // HTTP inbound rejected before decode: read error
}

var wireM atomic.Pointer[wireMetrics]

// InstallWireMetrics points the soap wire-path instrumentation at reg.
// The registration is process-global (the wire path is package-level
// machinery shared by every node in the process); simulated clusters that
// host many nodes in one process therefore see the sum over all of them.
// Passing nil uninstalls.
//
// Metric families: soap_decode_total{rung} (scanner or legacy),
// soap_pool_gets_total{result}, soap_bytes_in_total, soap_bytes_out_total,
// soap_envelope_bytes.
func InstallWireMetrics(reg *metrics.Registry) {
	if reg == nil {
		wireM.Store(nil)
		return
	}
	rung := reg.CounterVec("soap_decode_total", "rung")
	pool := reg.CounterVec("soap_pool_gets_total", "result")
	decErr := reg.CounterVec("soap_decode_errors_total", "reason")
	reject := reg.CounterVec("soap_inbound_rejects_total", "reason")
	wireM.Store(&wireMetrics{
		decodeScanner:  rung.With("scanner"),
		decodeLegacy:   rung.With("legacy"),
		poolHit:        pool.With("hit"),
		poolMiss:       pool.With("miss"),
		bytesIn:        reg.Counter("soap_bytes_in_total"),
		bytesOut:       reg.Counter("soap_bytes_out_total"),
		envelopeSize:   reg.BucketHistogram("soap_envelope_bytes", metrics.DefSizeBuckets),
		decodeOversize: decErr.With("oversize"),
		decodeBad:      decErr.With("malformed"),
		rejectOversize: reject.With("oversize"),
		rejectTruncate: reject.With("truncated"),
		rejectRead:     reject.With("read"),
	})
}

// countDecode records one Decode: the rung that produced the envelope and
// the serialized size.
func countDecode(scanner bool, size int) {
	m := wireM.Load()
	if m == nil {
		return
	}
	if scanner {
		m.decodeScanner.Inc()
	} else {
		m.decodeLegacy.Inc()
	}
	m.bytesIn.Add(int64(size))
	m.envelopeSize.Observe(float64(size))
}

// countPoolGet records one getBytes outcome.
func countPoolGet(hit bool) {
	m := wireM.Load()
	if m == nil {
		return
	}
	if hit {
		m.poolHit.Inc()
	} else {
		m.poolMiss.Inc()
	}
}

// countBytesOut records serialized bytes leaving the encode paths.
func countBytesOut(n int) {
	if m := wireM.Load(); m != nil {
		m.bytesOut.Add(int64(n))
	}
}

// countDecodeError records one rejected Decode input: oversize is the size
// cap, anything else is malformed bytes (a truncated or corrupt envelope).
func countDecodeError(oversize bool) {
	m := wireM.Load()
	if m == nil {
		return
	}
	if oversize {
		m.decodeOversize.Inc()
	} else {
		m.decodeBad.Inc()
	}
}

// Inbound-reject reasons for countInboundReject.
const (
	rejectOversize = iota
	rejectTruncated
	rejectRead
)

// countInboundReject records one inbound message the HTTP binding refused
// before decoding (misbehaving or byte-mangling sender).
func countInboundReject(reason int) {
	m := wireM.Load()
	if m == nil {
		return
	}
	switch reason {
	case rejectOversize:
		m.rejectOversize.Inc()
	case rejectTruncated:
		m.rejectTruncate.Inc()
	default:
		m.rejectRead.Inc()
	}
}
