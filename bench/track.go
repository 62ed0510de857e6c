package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"hash/crc32"
	"math/rand"
	"strconv"
	"sync/atomic"

	"wsgossip/internal/soap"
)

// note is the notification body every SOAP workload publishes. Sum is the
// CRC-32 of Data, so each application checks that the payload it was
// handed is the one that was published.
type note struct {
	XMLName xml.Name `xml:"urn:wsgossip:bench Note"`
	Seq     int      `xml:"Seq"`
	Sum     string   `xml:"Sum"`
	Data    string   `xml:"Data"`
}

// payloads yields the seeded body of each notification: a window into one
// pool of printable characters, so making a body costs a slice, not a
// random draw per byte.
type payloads struct {
	pool []byte
	size int
}

func newPayloads(seed int64, size int) *payloads {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, 1<<16+size)
	for i := range pool {
		pool[i] = letters[rng.Intn(len(letters))]
	}
	return &payloads{pool: pool, size: size}
}

func (p *payloads) note(seq int) note {
	off := (seq * 7919) % (len(p.pool) - p.size)
	data := p.pool[off : off+p.size]
	return note{Seq: seq, Sum: strconv.FormatUint(uint64(crc32.ChecksumIEEE(data)), 16), Data: string(data)}
}

// between returns the bytes between the first open and the following
// close tag. The notes are marshalled by encoding/xml from the struct
// above, so the application can cut its three fields out of the raw body
// block for tens of nanoseconds instead of unmarshalling it — the harness
// must stay small next to the ~100 µs a delivery costs the system.
func between(raw []byte, open, close string) ([]byte, bool) {
	i := bytes.Index(raw, []byte(open))
	if i < 0 {
		return nil, false
	}
	raw = raw[i+len(open):]
	j := bytes.Index(raw, []byte(close))
	if j < 0 {
		return nil, false
	}
	return raw[:j], true
}

// parseNote extracts the sequence number from a raw note body and reports
// whether the checksum matches the payload.
func parseNote(raw []byte) (seq int, intact bool) {
	s, ok1 := between(raw, "<Seq>", "</Seq>")
	sum, ok2 := between(raw, "<Sum>", "</Sum>")
	data, ok3 := between(raw, "<Data>", "</Data>")
	if !ok1 || !ok2 || !ok3 {
		return -1, false
	}
	seq, err := strconv.Atoi(string(s))
	if err != nil {
		return -1, false
	}
	want, err := strconv.ParseUint(string(sum), 16, 32)
	return seq, err == nil && uint32(want) == crc32.ChecksumIEEE(data)
}

// tracker records, for every (notification, subscriber) pair, whether and
// when the subscriber's application got the notification. It is shared by
// all applications of a cluster and safe for concurrent use.
type tracker struct {
	subs int
	now  func() int64 // ns on the workload's clock: wall or virtual
	due  []int64      // per notification: when it was due to be published
	lat  []uint32     // per pair: latency in µs plus one; 0 = not delivered

	delivered atomic.Int64 // unique deliveries, all notifications
	dupes     atomic.Int64 // a subscriber's application got a notification twice
	corrupt   atomic.Int64 // checksum mismatch or unparseable body
}

func newTracker(subs, notifications int, now func() int64) *tracker {
	return &tracker{
		subs: subs,
		now:  now,
		due:  make([]int64, notifications),
		lat:  make([]uint32, subs*notifications),
	}
}

// publish stamps notification seq as due at time at.
func (t *tracker) publish(seq int, at int64) { atomic.StoreInt64(&t.due[seq], at) }

// app returns subscriber sub's application service.
func (t *tracker) app(sub int) soap.Handler {
	return soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		if len(req.Envelope.Body.Blocks) == 0 {
			t.corrupt.Add(1)
			return nil, nil
		}
		seq, intact := parseNote(req.Envelope.Body.Blocks[0].Raw)
		if !intact || seq < 0 || seq >= len(t.due) {
			t.corrupt.Add(1)
			return nil, nil
		}
		t.record(seq, sub)
		return nil, nil
	})
}

// record notes that subscriber sub's application got notification seq now.
func (t *tracker) record(seq, sub int) {
	us := (t.now() - atomic.LoadInt64(&t.due[seq])) / 1000
	if us < 0 {
		us = 0
	}
	if !atomic.CompareAndSwapUint32(&t.lat[seq*t.subs+sub], 0, uint32(us)+1) {
		t.dupes.Add(1)
		return
	}
	t.delivered.Add(1)
}

// latencies summarizes the notifications in [from, to): every delivered
// pair's latency in ms, every complete notification's t90 in ms, the
// number of delivered pairs, and the notifications that never reached
// ceil(0.9*subs) subscribers.
func (t *tracker) latencies(from, to int) (deliver, spread []float64, pairs int, incomplete int) {
	one := make([]float64, 0, t.subs)
	for seq := from; seq < to; seq++ {
		one = one[:0]
		for _, v := range t.lat[seq*t.subs : (seq+1)*t.subs] {
			if v != 0 {
				one = append(one, float64(v-1)/1000)
			}
		}
		pairs += len(one)
		deliver = append(deliver, one...)
		if v, ok := t90(one, t.subs); ok {
			spread = append(spread, v)
		} else {
			incomplete++
		}
	}
	return deliver, spread, pairs, incomplete
}
