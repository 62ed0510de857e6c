package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"

	"wsgossip/internal/membership"
	"wsgossip/internal/soap"
	"wsgossip/internal/testbed"
	"wsgossip/internal/transport"
)

// Membership peers that are well-formed but wrong: a leave that lists other
// members besides its sender, a leave that names another member as its
// sender, and an exchange between two members that tombstoned each other.

// lastExchange is an endpoint that keeps a copy of the body of the last view
// exchange its Service sent.
type lastExchange struct {
	*membership.SOAPEndpoint
	body []byte
}

func (e *lastExchange) Send(ctx context.Context, msg transport.Message) error {
	if msg.Action == membership.ActionExchange {
		e.body = bytes.Clone(msg.Body)
	}
	return e.SOAPEndpoint.Send(ctx, msg)
}

const hostileMember = "mem://hostile"

// joinHostile starts an n-node overlay with a hostile member in it, run by
// an ordinary Service, and returns once every node knows every other.
func joinHostile(t *testing.T, n int) (*overlay, *lastExchange) {
	t.Helper()
	c := newMemberCluster(t, 131)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		c.addNode()
	}
	ep := &lastExchange{SOAPEndpoint: membership.NewSOAPEndpoint(hostileMember, c.Bus.Caller(hostileMember))}
	svc, err := membership.New(membership.Config{
		Endpoint: ep, Clock: c.Clock, Fanout: 3,
		SuspectAfter: memberSuspectAfter, RemoveAfter: memberRemoveAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	testbed.Bind(ep, svc)
	dispatcher := soap.NewDispatcher()
	ep.RegisterActions(dispatcher)
	c.Bus.Register(hostileMember, dispatcher)
	svc.Join(ctx, []string{"mem://node000"})
	c.Clock.Advance(1500 * time.Millisecond)

	svc.Tick(ctx)
	if ep.body == nil || svc.Size() != n {
		t.Fatalf("hostile view holds %d members, want all %d honest nodes", svc.Size(), n)
	}
	for _, addr := range c.Addrs {
		if !listsMember(c.nodes[addr].Membership(), hostileMember) {
			t.Fatalf("%s never learned the hostile member", addr)
		}
		for _, peer := range c.Addrs {
			if peer != addr && !listsMember(c.nodes[addr].Membership(), peer) {
				t.Fatalf("%s never learned %s", addr, peer)
			}
		}
	}
	return c, ep
}

// TestScenarioLeaveEvictsOnlyItsSender: a hostile member captures the view
// exchange its own Service writes — every member of the overlay, itself
// included — and sends it to every honest node as a leave. One message must
// not evict third parties: each receiver tombstones the sender alone,
// counts every other entry in membership_leave_rejected_total, and the
// honest views stay whole.
func TestScenarioLeaveEvictsOnlyItsSender(t *testing.T) {
	const n = 8
	c, ep := joinHostile(t, n)
	ctx := context.Background()
	leaves := make(map[string]int64, n)
	for _, addr := range c.Addrs {
		leaves[addr] = c.nodes[addr].Registry().Counter("membership_leaves_total").Value()
	}

	for _, addr := range c.Addrs {
		if err := ep.Send(ctx, transport.Message{To: addr, Action: membership.ActionLeave, Body: ep.body}); err != nil {
			t.Fatal(err)
		}
	}
	c.Clock.Advance(100 * time.Millisecond)

	for _, addr := range c.Addrs {
		node := c.nodes[addr]
		for _, peer := range c.Addrs {
			if peer != addr && !listsMember(node.Membership(), peer) {
				t.Fatalf("%s lost %s to one hostile leave", addr, peer)
			}
		}
		if listsMember(node.Membership(), hostileMember) {
			t.Fatalf("%s kept the member that left", addr)
		}
		reg := node.Registry()
		if got := reg.Counter("membership_leaves_total").Value() - leaves[addr]; got != 1 {
			t.Fatalf("%s applied %d leave entries, want 1: the sender's", addr, got)
		}
		// The body lists the hostile member and the n honest nodes.
		if got := reg.Counter("membership_leave_rejected_total").Value(); got != n {
			t.Fatalf("%s rejected %d leave entries, want %d", addr, got, n)
		}
	}

	// The overlay keeps working: a second round of exchanges leaves every
	// honest view whole, and the tombstone keeps the leaver out.
	c.Clock.Advance(time.Second)
	for _, addr := range c.Addrs {
		if got := c.nodes[addr].Membership().Size(); got != n-1 {
			t.Fatalf("%s holds %d members after the incident, want %d", addr, got, n-1)
		}
	}
}

// TestScenarioForgedLeaveEvictsTheNamedMember pins a known gap rather than a
// guarantee. Over SOAP a leave's sender is the From its body declares, and
// nothing checks it, so a hostile member that writes a leave naming a victim
// as From makes the receiver tombstone the victim. What the leave rule does
// bound holds: one forged message costs one receiver one member, the other
// views keep the victim, and the victim keeps gossiping. But the receiver's
// tombstone is never cleared, so it never readmits the victim, however
// often the victim's heartbeat advances.
func TestScenarioForgedLeaveEvictsTheNamedMember(t *testing.T) {
	const n = 8
	const victim, receiver = "mem://node003", "mem://node001"
	c, ep := joinHostile(t, n)
	reg := c.nodes[receiver].Registry()
	leaves := reg.Counter("membership_leaves_total").Value()

	forged := []byte(`<Membership xmlns="urn:wsgossip:membership"><From>` + victim + `</From>` +
		`<Members><M><A>` + victim + `</A><H>1</H></M></Members></Membership>`)
	if err := ep.Send(context.Background(), transport.Message{To: receiver, Action: membership.ActionLeave, Body: forged}); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(100 * time.Millisecond)

	if listsMember(c.nodes[receiver].Membership(), victim) {
		t.Fatalf("%s kept %s: a leave's sender is no longer the From its body declares", receiver, victim)
	}
	if got := reg.Counter("membership_leaves_total").Value() - leaves; got != 1 {
		t.Fatalf("%s applied %d leave entries, want 1", receiver, got)
	}
	if got := reg.Counter("membership_leave_rejected_total").Value(); got != 0 {
		t.Fatalf("%s rejected %d leave entries, want 0", receiver, got)
	}

	// Rounds of exchanges carry the victim's advancing heartbeat to every
	// node, yet the receiver's tombstone keeps it out for good.
	c.Clock.Advance(memberRemoveAfter)
	for _, addr := range c.Addrs {
		if addr == receiver || addr == victim {
			continue
		}
		if !listsMember(c.nodes[addr].Membership(), victim) {
			t.Fatalf("%s lost %s, which only %s was told left", addr, victim, receiver)
		}
	}
	if listsMember(c.nodes[receiver].Membership(), victim) {
		t.Fatalf("%s readmitted %s: the forged tombstone was cleared", receiver, victim)
	}
	if !listsMember(c.nodes[victim].Membership(), receiver) {
		t.Fatalf("%s lost %s", victim, receiver)
	}
}

// listsMember reports whether svc's view holds addr.
func listsMember(svc *membership.Service, addr string) bool {
	for _, m := range svc.Members() {
		if m.Addr == addr {
			return true
		}
	}
	return false
}

// TestScenarioTombstonedPairTradesNoStorm: a hostile member forges a leave
// each way between two honest nodes, so each holds the other as a
// tombstone, then forges one exchange from one to the other. A node answers
// an exchange only when its merge admitted the sender, so the forged exchange
// draws no reply, and for 10 virtual seconds no view exchange passes between
// the pair. Were a sender the view cannot admit answered, the two would trade
// whole views, each reply answering the last, for as long as the run lasted.
func TestScenarioTombstonedPairTradesNoStorm(t *testing.T) {
	const n = 8
	const a, b = "mem://node001", "mem://node003"
	c, ep := joinHostile(t, n)
	ctx := context.Background()
	forged := func(from string) []byte {
		return []byte(`<Membership xmlns="urn:wsgossip:membership"><From>` + from + `</From>` +
			`<Members><M><A>` + from + `</A><H>1</H></M></Members></Membership>`)
	}
	between := 0 // view exchanges a and b receive from each other
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		to, from := pair[0], pair[1]
		inner := c.nodes[to].Handler()
		c.Bus.Register(to, soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
			if blocks := req.Envelope.Body.Blocks; req.Action() == membership.ActionExchange && len(blocks) > 0 &&
				bytes.Contains(blocks[0].Raw, []byte("<From>"+from+"</From>")) {
				between++
			}
			return inner.HandleSOAP(ctx, req)
		}))
		if err := ep.Send(ctx, transport.Message{To: to, Action: membership.ActionLeave, Body: forged(from)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Clock.Advance(100 * time.Millisecond)
	if listsMember(c.nodes[a].Membership(), b) || listsMember(c.nodes[b].Membership(), a) {
		t.Fatal("the forged leaves did not tombstone the pair")
	}
	between = 0

	if err := ep.Send(ctx, transport.Message{To: a, Action: membership.ActionExchange, Body: forged(b)}); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(10 * time.Second)
	if between > 1 {
		t.Fatalf("one forged exchange set off %d view exchanges between %s and %s in 10s, want only itself", between, a, b)
	}
	for _, addr := range c.Addrs {
		if got := c.nodes[addr].Membership().Size(); addr != a && addr != b && got < n-1 {
			t.Fatalf("%s holds %d members after the incident, want at least %d", addr, got, n-1)
		}
	}
}
