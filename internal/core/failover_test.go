package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// TestCoordinatorActivityReplicationAndFailover proves the failover path:
// an activity created at the primary is replicated to the successor, and a
// disseminator whose first-contact registration hits the dead primary
// re-registers against the successor and obtains usable parameters.
func TestCoordinatorActivityReplicationAndFailover(t *testing.T) {
	bus := soap.NewMemBus()
	ctx := context.Background()

	successor := NewCoordinator(CoordinatorConfig{
		Address:             "mem://coord-b",
		ReplicateActivities: true, // a successor must accept imports
	})
	bus.Register("mem://coord-b", successor.Handler())
	primary := NewCoordinator(CoordinatorConfig{
		Address:             "mem://coord-a",
		Caller:              bus,
		Replicas:            []string{"mem://coord-b"},
		ReplicateActivities: true,
	})
	bus.Register("mem://coord-a", primary.Handler())

	// Subscribers register at the primary; subscription replication gives
	// the successor an identical assignment base.
	for _, addr := range []string{"mem://n1", "mem://n2", "mem://n3"} {
		if err := primary.SubscribeLocal(ctx, addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	init, err := NewInitiator(InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coord-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := successor.LiveActivities(); got != 1 {
		t.Fatalf("successor imported %d activities, want 1", got)
	}

	// The primary dies; a late joiner's registration must fail over.
	bus.Unregister("mem://coord-a")
	d, err := NewDisseminator(DisseminatorConfig{
		Address:      "mem://n1",
		Caller:       bus,
		Coordinators: []string{"mem://coord-b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.JoinInteraction(ctx, inter.Context, ProtocolPushGossip); err != nil {
		t.Fatalf("registration did not fail over to the successor: %v", err)
	}
	if got := d.Stats().Registrations; got != 1 {
		t.Fatalf("failover registration count %d, want 1", got)
	}

	// Without a configured successor the same registration fails.
	bare, err := NewDisseminator(DisseminatorConfig{Address: "mem://n2", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.JoinInteraction(ctx, inter.Context, ProtocolPushGossip); err == nil {
		t.Fatal("registration against the dead primary should fail with no successors")
	}

	// A coordinator outside the replicating ensemble refuses imports, so a
	// stranger cannot grow its activity table.
	loner := NewCoordinator(CoordinatorConfig{Address: "mem://coord-c"})
	bus.Register("mem://coord-c", loner.Handler())
	outsider := NewCoordinator(CoordinatorConfig{
		Address:             "mem://outsider",
		Caller:              bus,
		Replicas:            []string{"mem://coord-c"},
		ReplicateActivities: true,
	})
	outsider.CreateActivity()
	if got := loner.LiveActivities(); got != 0 {
		t.Fatalf("non-replicating coordinator imported %d activities, want 0", got)
	}
}

// TestCoordinatorActivityTTLPruning drives the coordinator's housekeeping
// Tick on an injected clock: activities stamped with the default TTL are
// pruned once their window elapses, and late registrations are refused.
func TestCoordinatorActivityTTLPruning(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewCoordinator(CoordinatorConfig{
		Address:     "mem://coord",
		Now:         func() time.Time { return now },
		ActivityTTL: time.Second,
	})
	c.CreateActivity()
	c.CreateActivity()
	if got := c.LiveActivities(); got != 2 {
		t.Fatalf("live activities %d, want 2", got)
	}
	now = now.Add(500 * time.Millisecond)
	c.Tick(context.Background())
	if got := c.LiveActivities(); got != 2 {
		t.Fatalf("mid-window prune removed activities: %d live, want 2", got)
	}
	now = now.Add(600 * time.Millisecond)
	c.Tick(context.Background())
	if got := c.LiveActivities(); got != 0 {
		t.Fatalf("expired activities survive the prune round: %d live, want 0", got)
	}
}

// deadlineCaller records, for every one-way send, its action and how long
// its context gave it from the moment of the send (-1 for no deadline).
type deadlineCaller struct {
	soap.Caller
	actions []string
	budgets []time.Duration
}

func (d *deadlineCaller) Send(ctx context.Context, _ string, env *soap.Envelope) error {
	budget := time.Duration(-1)
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
	}
	d.actions = append(d.actions, env.Action())
	d.budgets = append(d.budgets, budget)
	return nil
}

// TestReplicationSendsAreDeadlineBounded: every replication send, of a
// subscription or of an activity, has at most replicateTimeout, even when
// the request that caused it carries no deadline at all, so a dead replica
// cannot hold the primary's request path.
func TestReplicationSendsAreDeadlineBounded(t *testing.T) {
	caller := &deadlineCaller{}
	c := NewCoordinator(CoordinatorConfig{
		Address:             "mem://coord-a",
		Caller:              caller,
		Replicas:            []string{"mem://coord-b", "mem://coord-c"},
		ReplicateActivities: true,
	})
	if err := c.SubscribeLocal(context.Background(), "mem://n1", RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	c.CreateActivity()
	want := []string{ActionReplicate, ActionReplicate, ActionReplicateActivity, ActionReplicateActivity}
	if len(caller.actions) != len(want) {
		t.Fatalf("replication sends = %v, want %v", caller.actions, want)
	}
	for i, action := range caller.actions {
		if action != want[i] {
			t.Fatalf("send %d action = %s, want %s", i, action, want[i])
		}
		if b := caller.budgets[i]; b < 0 || b > replicateTimeout {
			t.Fatalf("%s send %d has budget %v, want a deadline within %v", action, i, b, replicateTimeout)
		}
	}
}

// TestCoordinatorRefusesStrangerActivities: a coordinator outside a
// replicating ensemble answers an activity import with a Sender fault, and
// one inside it still refuses a context that fails Validate; neither grows
// the activity table. (TestImportActivity in package wscoord checks that an
// accepted import is idempotent and serves registrations.)
func TestCoordinatorRefusesStrangerActivities(t *testing.T) {
	valid := wscoord.CoordinationContext{
		Identifier:          "urn:stranger",
		CoordinationType:    CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://stranger"},
	}
	invalid := valid
	invalid.RegistrationService.Address = ""
	for _, tc := range []struct {
		name      string
		replicate bool
		cctx      wscoord.CoordinationContext
	}{
		{"outside the ensemble", false, valid},
		{"invalid context", true, invalid},
	} {
		c := NewCoordinator(CoordinatorConfig{Address: "mem://coord", ReplicateActivities: tc.replicate})
		bus := soap.NewMemBus()
		bus.Register("mem://coord", c.Handler())
		env := soap.NewEnvelope()
		if err := env.SetAddressing(addressingFor("mem://coord", ActionReplicateActivity)); err != nil {
			t.Fatal(err)
		}
		if err := env.SetBody(ReplicateActivity{Context: tc.cctx}); err != nil {
			t.Fatal(err)
		}
		_, err := bus.Call(context.Background(), "mem://coord", env)
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code.Value != soap.CodeSender {
			t.Fatalf("%s: import answered %v, want a Sender fault", tc.name, err)
		}
		if got := c.LiveActivities(); got != 0 {
			t.Fatalf("%s: refused import stored %d activities", tc.name, got)
		}
	}
}
