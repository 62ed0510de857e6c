package soap_test

import (
	"context"
	"fmt"
	"testing"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// The intern table never forgets, so it must learn only values whose number
// the deployment bounds. These tests drive whole receive paths with
// identifiers minted at run time — a MessageID per notification, an
// interaction ID per coordination context, a TaskID per aggregation task —
// and check that none of them reaches the table.

// checkRoom fails the test if the table is already too full for Symbol to
// learn anything, which would make "did not grow" vacuous.
func checkRoom(t *testing.T) int {
	t.Helper()
	n := soap.InternTableLen()
	if room := soap.MaxInternSymbols - n; room < 100 {
		t.Fatalf("intern table already holds %d names, Symbol learns up to %d: too full to show what it learns", n, soap.MaxInternSymbols)
	}
	return n
}

// TestMessageIDsNeverInterned: 1,000 notifications, each with its own
// MessageID and in an interaction of its own, each announced before it
// arrives, go through a disseminator's whole receive path. The first
// delivery teaches the table what recurs — actions, block names, the
// announcing holder — and the other 1,000 teach it nothing.
func TestMessageIDsNeverInterned(t *testing.T) {
	bus := soap.NewMemBus()
	d, err := core.NewDisseminator(core.DisseminatorConfig{Address: "mem://node", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://node", d.Handler())
	send := func(action string, env *soap.Envelope, id wsa.MessageID) {
		t.Helper()
		if err := env.SetAddressing(wsa.Headers{To: "mem://node", Action: action, MessageID: id}); err != nil {
			t.Fatal(err)
		}
		if err := bus.Send(context.Background(), "mem://node", env); err != nil {
			t.Fatal(err)
		}
	}
	deliver := func(i int) {
		id := fmt.Sprintf("urn:uuid:notification-%04d", i)
		interaction := fmt.Sprintf("urn:uuid:interaction-%04d", i)
		ihave := soap.NewEnvelope()
		ihave.SetBodyBlock(marshalBlock(t, core.Announce{
			InteractionID: interaction, MessageID: id, Hops: 2, Holder: "mem://holder",
		}))
		send(core.ActionIHave, ihave, wsa.NewMessageID())

		notify := soap.NewEnvelope()
		if err := core.SetGossipHeader(notify, core.GossipHeader{InteractionID: interaction, MessageID: id}); err != nil {
			t.Fatal(err)
		}
		if err := notify.SetBody(event{Seq: i}); err != nil {
			t.Fatal(err)
		}
		send(core.ActionNotify, notify, wsa.MessageID(id))
	}
	deliver(0)
	before := checkRoom(t)
	for i := 1; i <= 1000; i++ {
		deliver(i)
	}
	if got := d.Stats(); got.Delivered != 1001 || got.Fetched != 0 {
		t.Fatalf("stats = %+v, want 1001 deliveries", got)
	}
	if grown := soap.InternTableLen() - before; grown != 0 {
		t.Fatalf("the intern table grew by %d names over 1,000 distinct MessageIDs and interactions", grown)
	}
}

// TestTaskIDsNeverInterned is the long-running aggregation node: 1,000
// tasks, each with its own TaskID and coordination context, reach it
// through a share from one of four peers, and it joins each passively. The
// first share teaches the table its peer, function and names; the peers
// recur, the tasks never reach the table.
func TestTaskIDsNeverInterned(t *testing.T) {
	bus := soap.NewMemBus()
	svc, err := aggregate.NewService(aggregate.ServiceConfig{
		Address: "mem://node", Caller: bus, Value: func() float64 { return 1 }, Clock: clock.NewVirtual(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://node", svc.Handler())
	share := func(i int) {
		task := fmt.Sprintf("urn:uuid:task-%04d", i)
		env := soap.NewEnvelope()
		if err := wscoord.AttachContext(env, wscoord.CoordinationContext{
			Identifier:          task,
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
		}); err != nil {
			t.Fatal(err)
		}
		env.SetBodyBlock(marshalBlock(t, aggregate.Share{
			TaskID: task, Function: string(aggregate.FuncAvg), From: fmt.Sprintf("mem://peer-%d", i%4),
			Sum: 1, Weight: 0.5, WindowMillis: 1000, Epoch: 1, Seq: 1,
		}))
		if err := env.SetAddressing(wsa.Headers{To: "mem://node", Action: aggregate.ActionExchange, MessageID: wsa.NewMessageID()}); err != nil {
			t.Fatal(err)
		}
		if err := bus.Send(context.Background(), "mem://node", env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		share(i)
	}
	before := checkRoom(t)
	for i := 4; i < 1004; i++ {
		share(i)
	}
	if got := svc.Stats(); got.PassiveJoins != 1004 || got.SharesAbsorbed != 1004 {
		t.Fatalf("stats = %+v, want 1004 tasks joined through one share each", got)
	}
	if grown := soap.InternTableLen() - before; grown != 0 {
		t.Fatalf("the intern table grew by %d names over 1,000 distinct tasks", grown)
	}
}

// event is the notifications' application body.
type event struct {
	XMLName struct{} `xml:"urn:test Event"`
	Seq     int      `xml:"Seq"`
}

// marshalBlock marshals v as a body block, in the spelling encoding/xml
// writes, which is the canonical one the receivers read in place.
func marshalBlock(t *testing.T, v any) soap.Block {
	t.Helper()
	b, err := soap.MarshalBlock(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
