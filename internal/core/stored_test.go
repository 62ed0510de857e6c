package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// forwardedBytes is what soap.Forward sends one target for env, re-headed by
// rh with block: the bytes, or nil when the splice writer declines a block.
func forwardedBytes(t *testing.T, env *soap.Envelope, rh soap.Rehead, block []byte) []byte {
	t.Helper()
	rec := &wireRecorder{}
	sent, failed := soap.Forward(context.Background(), rec, env, rh, block, []string{"mem://peer"})
	switch {
	case sent == 1 && len(rec.msgs) == 1:
		return rec.msgs[0]
	case sent == 0 && len(failed) == 1 && len(rec.msgs) == 0:
		return nil
	}
	t.Fatalf("Forward sent %d, failed %v, recorded %d messages", sent, failed, len(rec.msgs))
	return nil
}

// storedServeSeeds are the documents FuzzStoredServe starts from: the
// foreign-stack envelopes of soap's interop corpus, an unknown and a
// mustUnderstand header among them, the committed wire form of every message
// core sends, and a prefixed notification the fallback decoder captures.
func storedServeSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, glob := range []string{"../soap/testdata/interop/*.xml", "testdata/wire/*.xml"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seeds in %s: %v", glob, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	return append(seeds, []byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:a="`+wsa.Namespace+`" xmlns:g="`+Namespace+`"><s:Header>`+
		`<a:Action>`+ActionNotify+`</a:Action><a:MessageID>urn:uuid:pfx</a:MessageID>`+
		`<g:Gossip><g:InteractionID>urn:i</g:InteractionID><g:MessageID>urn:uuid:pfx</g:MessageID><g:Hops>2</g:Hops></g:Gossip>`+
		`</s:Header><s:Body><p:Data xmlns:p="urn:px">pfx</p:Data></s:Body></s:Envelope>`))
}

// FuzzStoredServe: a store slot refilled in place serves exactly what a clone
// of its notification would. Envelope A is held in the only slot of a store,
// then evicted by envelope B, whose copy refills that slot; B's receive
// buffer is then recycled. Forwarded from the slot — fanned out, or direct,
// as a retransmission — B is the same bytes as forwarded from B.Clone() with
// the same Rehead, and served (when it carries a gossip header) it is what a
// serve of the clone sends; every output passes the strict well-formedness
// oracle.
func FuzzStoredServe(f *testing.F) {
	seeds := storedServeSeeds(f)
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+1)%len(seeds)])
		f.Add(seeds[(i+1)%len(seeds)], seeds[i])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		envA, err := soap.Decode(bytes.Clone(a))
		if err != nil {
			return
		}
		bufB := bytes.Clone(b)
		envB, err := soap.Decode(bufB)
		if err != nil {
			return
		}
		clone := envB.Clone()
		rec := &wireRecorder{}
		d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: rec, StoreSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		d.retainLocked(gossip.IDSum("a"), envA, nil)
		slot, _ := d.m.Get(gossip.IDSum("a"))
		d.retainLocked(gossip.IDSum("b"), envB, nil)
		refilled, _ := d.m.Get(gossip.IDSum("b"))
		_, aHeld := d.m.Get(gossip.IDSum("a"))
		d.mu.Unlock()
		if slot == nil || refilled != slot || aHeld {
			t.Fatalf("B did not refill A's slot (A's %p, B's %p, A held %v)", slot, refilled, aHeld)
		}
		for i := range bufB {
			bufB[i] = '#' // the transport recycles B's receive buffer
		}

		for _, direct := range []bool{false, true} {
			rh := soap.Rehead{Name: gossipName, Action: ActionNotify, ID: []byte("urn:uuid:fuzz"), Direct: direct}
			block := appendGossipBlock(nil, "urn:uuid:i", 2, "", "")
			got, want := forwardedBytes(t, slot.Envelope(), rh, block), forwardedBytes(t, clone, rh, block)
			if !bytes.Equal(got, want) {
				t.Fatalf("direct=%v: the refilled slot forwards\n%s\nits clone\n%s", direct, got, want)
			}
			if got != nil {
				if err := strictWellFormed(got); err != nil {
					t.Fatalf("direct=%v: %v\n%s", direct, err, got)
				}
			}
		}

		gh, ok := clone.HeaderBlock(Namespace, "Gossip")
		if !ok {
			return
		}
		interaction, n, _, err := readNotice(clone, gh)
		if err != nil {
			return
		}
		n.hops = gossip.ServedHops(n.hops)
		rh := soap.Rehead{Name: gossipName, Action: ActionNotify, ID: n.messageID, Direct: true}
		want := forwardedBytes(t, clone, rh, appendGossipBlock(nil, string(interaction), n.hops, n.protocol, ""))
		rec.msgs = nil
		before, slots := d.Stats().Served, []*stored{slot}
		d.mu.Lock()
		pin(slots, 1)
		d.mu.Unlock()
		d.retransmit(context.Background(), "mem://peer", slots, d.stats.served)
		if served := d.Stats().Served > before; served != (want != nil) {
			t.Fatalf("serve = %v, a forward of the clone %q", served, want)
		}
		if want == nil {
			return
		}
		if len(rec.msgs) != 1 || !bytes.Equal(rec.msgs[0], want) {
			t.Fatalf("the refilled slot serves\n%q\nits clone\n%s", rec.msgs, want)
		}
		if err := strictWellFormed(rec.msgs[0]); err != nil {
			t.Fatalf("served: %v\n%s", err, rec.msgs[0])
		}
	})
}

// stressNote is the body of the stress test's notification Seq: padding
// whose length varies with Seq, so refills cross the slab's size classes, and
// the CRC of Seq and the padding, so a copy whose bytes mix two
// notifications shows.
type stressNote struct {
	XMLName xml.Name `xml:"urn:stress Note"`
	Seq     int      `xml:"Seq"`
	Pad     string   `xml:"Pad"`
	CRC     uint32   `xml:"CRC"`
}

func newStressNote(seq int) stressNote {
	n := stressNote{Seq: seq, Pad: strings.Repeat(string(rune('a'+seq%26)), seq*37%300)}
	n.CRC = n.sum()
	return n
}

func (n stressNote) sum() uint32 {
	return crc32.ChecksumIEEE([]byte(strconv.Itoa(n.Seq) + "/" + n.Pad))
}

// stressID is the MessageID of the stress test's notification seq.
func stressID(seq int) string { return "urn:uuid:stress-" + strconv.Itoa(seq) }

// servedCopy is what the delaying binding read of one served copy: the
// notification its body names, and whether its header and CRC agree.
type servedCopy struct {
	seq int
	ok  bool
}

// serveLog collects the copies one request was served; it rides in the
// request's context.
type serveLog struct{ copies []servedCopy }

type serveLogKey struct{}

// delayingBinding waits before it reads what it is handed, as a slow
// transport would, so first receipts run between the serves of one digest;
// then it checks the copy and logs it with the request it answers.
type delayingBinding struct{ dropCaller }

func (delayingBinding) SendEncoded(ctx context.Context, _ string, data []byte) error {
	time.Sleep(20 * time.Microsecond)
	got := servedCopy{seq: -1}
	var note stressNote
	if env, err := soap.Decode(data); err == nil && env.DecodeBody(&note) == nil {
		gh, err := GossipHeaderFrom(env)
		got = servedCopy{seq: note.Seq, ok: err == nil && gh.MessageID == stressID(note.Seq) && note.CRC == note.sum()}
	}
	if log, ok := ctx.Value(serveLogKey{}).(*serveLog); ok {
		log.copies = append(log.copies, got)
	}
	return nil
}

// TestStoredSlotNeverRefilledUnderServe: first receipts wrap a small store
// many times while IWANTs and digests are served from it through a binding
// that delays each copy, so a digest's later slots are served well after the
// responder took them. The seen cache is smaller than the store, so a
// notification the store still holds comes back as a first receipt too.
// Every served copy must be whole — its header, body and CRC one
// notification's — an IWANT must be served the notification it names, and a
// digest's copies must come newest first, each once: a slot refilled under a
// serve, or the oldest slot refilled by a notification already held, breaks
// one of these.
func TestStoredSlotNeverRefilledUnderServe(t *testing.T) {
	const (
		storeSize = 8
		interID   = "urn:uuid:stress"
	)
	receipts := 2000
	if testing.Short() {
		receipts = 500
	}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: delayingBinding{}, RNG: rand.New(rand.NewSource(1)),
		StoreSize: storeSize, SeenCacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A known interaction without targets: intercept delivers and forwards
	// nothing, so every send is a serve.
	d.interactions[interID] = newInteractionState(interID, ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 3})
	wires := make([][]byte, receipts)
	for seq := range wires {
		env := soap.NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{MessageID: wsa.MessageID(stressID(seq))}); err != nil {
			t.Fatal(err)
		}
		if err := SetGossipHeader(env, GossipHeader{InteractionID: interID, Hops: 3}); err != nil {
			t.Fatal(err)
		}
		if err := env.SetBody(newStressNote(seq)); err != nil {
			t.Fatal(err)
		}
		if wires[seq], err = env.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	request := func(action string, body soap.Block) *soap.Request {
		out := soap.NewEnvelope()
		if err := out.SetAddressing(addressingFor("mem://self", action)); err != nil {
			t.Error(err)
		}
		out.SetBodyBlock(body)
		wire, err := out.Encode()
		if err != nil {
			t.Error(err)
		}
		env, err := soap.Decode(wire)
		if err != nil {
			t.Error(err)
		}
		return &soap.Request{Envelope: env}
	}

	// fetch sends an IWANT for seq and checks what it is served; a
	// notification evicted meanwhile is not served at all.
	fetch := func(seq int) bool {
		log := &serveLog{}
		ctx := context.WithValue(context.Background(), serveLogKey{}, log)
		if _, err := d.handleIWant(ctx, request(ActionIWant, fetchOf(Fetch{MessageID: stressID(seq), Requester: "mem://iwant"}))); err != nil {
			return true
		}
		if len(log.copies) != 1 || !log.copies[0].ok || log.copies[0].seq != seq {
			t.Errorf("IWANT for %d served %+v", seq, log.copies)
			return false
		}
		return true
	}

	var latest atomic.Int64 // the newest notification taken in
	latest.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // first receipts, each from a receive buffer recycled after it
		defer wg.Done()
		defer close(done)
		buf := make([]byte, 0, 1024)
		receive := func(seq int) {
			buf = append(buf[:0], wires[seq]...)
			env, err := soap.Decode(buf)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := d.intercept(context.Background(), &soap.Request{Envelope: env}); err != nil {
				t.Error(err)
			}
			clear(buf)
		}
		for seq := range wires {
			receive(seq)
			latest.Store(int64(seq))
			if seq >= storeSize {
				receive(seq - 3) // still held, forgotten by the seen cache
				if seq%4 == 0 {
					fetch(seq - storeSize + 1) // the oldest held, the next evictee
				}
			}
		}
	}()
	for w := range 2 {
		wg.Add(2)
		go func() { // IWANTs, from the newest held back to the oldest
			defer wg.Done()
			for k := w; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				if seq := int(latest.Load()) - k%storeSize; seq >= 0 && !fetch(seq) {
					return
				}
			}
		}()
		go func() { // empty digests: the whole store is missing
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				log := &serveLog{}
				ctx := context.WithValue(context.Background(), serveLogKey{}, log)
				if _, err := d.handleDigest(ctx, request(ActionDigest, digestBlock("mem://digest", nil, false))); err != nil {
					t.Error(err)
					return
				}
				for i, c := range log.copies {
					if !c.ok || i > 0 && c.seq >= log.copies[i-1].seq {
						t.Errorf("a digest was served %+v: not whole notifications, newest first, each once", log.copies)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s := d.Stats(); s.Served == 0 || s.Repaired == 0 || s.SendErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
