package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"wsgossip"
)

// TestFlagSetUnchanged pins the command line: every flag's name, default
// (as flag prints it) and help text. The binary's flags are its public
// interface; moving the wiring into wsgossip.Node must not move them.
func TestFlagSetUnchanged(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"activity-ttl", "0s", "default expiry stamped on coordination activities, 0 = never (coordinator)"},
		{"admit-burst", "0", "admission token-bucket depth, 0 = max(1, -admit-rate) (disseminator)"},
		{"admit-rate", "0", "inbound admission rate in requests/second: excess requests are shed with a retry-after fault senders honor, 0 disables (disseminator)"},
		{"aggregate", "1s", "push-sum exchange interval when -value is set (disseminator)"},
		{"announce", "0s", "deferred lazy-push announce interval, 0 announces on receipt (disseminator)"},
		{"breaker-cooldown", "0s", "open-circuit cooldown before a half-open probe, 0 = default 5s (disseminator, initiator)"},
		{"breaker-threshold", "0", "consecutive failures that open a peer's circuit, 0 = default 5 (disseminator, initiator)"},
		{"cluster-queries", "", "comma-separated continuous cluster queries as func:metric pairs (e.g. count:nodes,avg:load): runs this node as the querier restarting each query every -cluster-window; participants resolve the metric name against their local value sources, falling back to -value (disseminator)"},
		{"cluster-window", "10s", "epoch window for -cluster-queries; every node re-contributes at each window boundary so estimates track churn (disseminator)"},
		{"coordinator", "", "coordinator base URL (non-coordinator roles)"},
		{"count", "1", "notifications to send (initiator)"},
		{"delivery", "false", "route outbound gossip through the failure-aware delivery plane: per-peer queues, retries with backoff, circuit breaking (disseminator, initiator)"},
		{"delivery-attempts", "0", "per-message attempt budget on the delivery plane, 0 = default 4 (disseminator, initiator)"},
		{"delivery-timeout", "0s", "per-attempt send timeout on the delivery plane, 0 = default 2s (disseminator, initiator)"},
		{"jitter", "0.1", "round jitter as a fraction of each period, in [0,1) (disseminator)"},
		{"listen", ":8070", "listen address (server roles)"},
		{"members", "", "comma-separated membership seed URLs: runs a live peer view that fan-outs sample instead of coordinator target lists (disseminator)"},
		{"membership", "1s", "membership view-exchange interval when -members is set (disseminator)"},
		{"message", "hello from wsgossip", "notification text (initiator)"},
		{"metrics-addr", "", "extra listen address dedicated to /metrics and /healthz; they are always also served on -listen (server roles)"},
		{"probe-k", "3", "helpers asked to confirm a suspect indirectly before it is declared down; needs -delivery and -members, negative asks every helper, 0 disables indirect probing (disseminator)"},
		{"probe-timeout", "0s", "indirect-probe round deadline, 0 = default 2s (disseminator)"},
		{"prune", "0s", "activity-expiry pruning round interval, 0 disables (coordinator)"},
		{"public", "", "public base URL of this node (default http://<listen>/)"},
		{"pull", "0s", "WS-PullGossip round interval, 0 disables (disseminator)"},
		{"quiescent-max", "0s", "adaptive pacing cap: pull/repair/aggregate rounds back off toward this period while idle, 0 keeps them fixed (disseminator)"},
		{"repair", "2s", "anti-entropy digest interval, 0 disables (disseminator)"},
		{"role", "", "coordinator | disseminator | consumer | initiator"},
		{"seed", "0", "round-schedule seed, 0 derives one from the address (disseminator)"},
		{"style", "push", "dissemination style handed to registrants: push or lazypush (coordinator)"},
		{"value", "NaN", "local measurement: joins aggregation interactions as a participant (disseminator)"},
	}
	fs := flag.NewFlagSet("wsgossip-node", flag.ContinueOnError)
	if _, err := parseArgs(fs, []string{"-role", "coordinator"}); err != nil {
		t.Fatal(err)
	}
	i := 0
	fs.VisitAll(func(f *flag.Flag) { // lexical order, as the table
		if i < len(want) && (f.Name != want[i].name || f.DefValue != want[i].def || f.Usage != want[i].usage) {
			t.Errorf("flag %d = -%s (default %q, help %q), want -%s (default %q, help %q)",
				i, f.Name, f.DefValue, f.Usage, want[i].name, want[i].def, want[i].usage)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%d flags defined, want %d", i, len(want))
	}
}

func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("wsgossip-node", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

func TestParseArgsRefusals(t *testing.T) {
	diss := []string{"-role", "disseminator", "-coordinator", "http://c/"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"members without interval", append(diss, "-members", "http://a/", "-membership", "0"),
			"-members requires a positive -membership interval"},
		{"value without interval", append(diss, "-value", "1", "-aggregate", "0"),
			"-value requires a positive -aggregate interval"},
		{"window too short", append(diss, "-cluster-queries", "count:nodes", "-cluster-window", "3s", "-aggregate", "1s"),
			"-cluster-window 3s is too short for -aggregate 1s (want at least 4 rounds per window)"},
		{"queries without interval", append(diss, "-cluster-queries", "count:nodes", "-aggregate", "0"),
			"-cluster-queries requires a positive -aggregate interval"},
		{"bad query", append(diss, "-cluster-queries", "nodes"),
			`-cluster-queries entry "nodes": want func:metric (e.g. count:nodes)`},
		{"no coordinator", []string{"-role", "consumer"}, "-coordinator is required for role consumer"},
		{"no role", nil, `unknown role "" (want coordinator, disseminator, consumer, or initiator)`},
	}
	for _, tc := range cases {
		if _, err := parse(tc.args...); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	// Only the disseminator stack reads the disseminator flags: the other
	// roles ignore them, as they always have.
	if _, err := parse("-role", "consumer", "-coordinator", "http://c/", "-members", "x", "-membership", "0"); err != nil {
		t.Errorf("consumer refused a disseminator-only flag: %v", err)
	}
}

func TestParseArgsRoles(t *testing.T) {
	t.Run("coordinator", func(t *testing.T) {
		o, err := parse("-role", "coordinator", "-listen", "127.0.0.1:9000", "-style", "lazypush",
			"-activity-ttl", "10m", "-prune", "30s", "-metrics-addr", ":9090")
		if err != nil {
			t.Fatal(err)
		}
		want := options{role: "coordinator", listen: "127.0.0.1:9000", metricsAddr: ":9090", style: "lazypush",
			activityTTL: 10 * time.Minute, pruneEvery: 30 * time.Second, message: "hello from wsgossip", count: 1}
		want.node.Address = "http://127.0.0.1:9000/"
		if !reflect.DeepEqual(o, want) {
			t.Fatalf("got  %+v\nwant %+v", o, want)
		}
	})
	t.Run("initiator", func(t *testing.T) {
		o, err := parse("-role", "initiator", "-coordinator", "http://c/", "-message", "m", "-count", "3",
			"-delivery", "-delivery-attempts", "6", "-delivery-timeout", "1s", "-breaker-threshold", "2", "-breaker-cooldown", "3s")
		if err != nil {
			t.Fatal(err)
		}
		if o.role != "initiator" || o.message != "m" || o.count != 3 || o.node.Coordinator != "http://c/" {
			t.Fatalf("got %+v", o)
		}
		want := &wsgossip.DeliveryConfig{MaxAttempts: 6, AttemptTimeout: time.Second, BreakerThreshold: 2, BreakerCooldown: 3 * time.Second}
		if !reflect.DeepEqual(o.node.Delivery, want) {
			t.Fatalf("delivery %+v, want %+v", o.node.Delivery, want)
		}
	})
	t.Run("consumer", func(t *testing.T) {
		o, err := parse("-role", "consumer", "-coordinator", "http://c/", "-public", "http://me/")
		if err != nil {
			t.Fatal(err)
		}
		want := wsgossip.NodeConfig{Address: "http://me/", Role: wsgossip.RoleConsumer, Coordinator: "http://c/"}
		if !reflect.DeepEqual(o.node, want) {
			t.Fatalf("got  %+v\nwant %+v", o.node, want)
		}
	})
	t.Run("disseminator defaults", func(t *testing.T) {
		o, err := parse("-role", "disseminator", "-coordinator", "http://c/", "-listen", ":8071")
		if err != nil {
			t.Fatal(err)
		}
		want := wsgossip.NodeConfig{
			Address: "http://localhost:8071/", Role: wsgossip.RoleDisseminator, Coordinator: "http://c/",
			RepairEvery: 2 * time.Second, JitterFrac: 0.1, ProbeK: 3, AggregateEvery: time.Second,
		}
		if !reflect.DeepEqual(o.node, want) {
			t.Fatalf("got  %+v\nwant %+v", o.node, want)
		}
	})
	t.Run("disseminator full stack", func(t *testing.T) {
		o, err := parse("-role", "disseminator", "-coordinator", "http://c/", "-public", "http://me/",
			"-seed", "42", "-pull", "1s", "-repair", "0", "-announce", "100ms", "-jitter", "0.2", "-quiescent-max", "30s",
			"-members", " http://a/ ,http://me/,", "-membership", "2s",
			"-delivery", "-probe-k", "-1", "-probe-timeout", "500ms", "-admit-rate", "200", "-admit-burst", "50",
			"-value", "7", "-aggregate", "500ms", "-cluster-queries", "count:nodes, avg:load", "-cluster-window", "5s")
		if err != nil {
			t.Fatal(err)
		}
		n := o.node
		if n.Value == nil || n.Value() != 7 {
			t.Fatal("-value 7 did not become a constant value source")
		}
		n.Value = nil
		want := wsgossip.NodeConfig{
			Address: "http://me/", Role: wsgossip.RoleDisseminator, Coordinator: "http://c/", Seed: 42,
			PullEvery: time.Second, AnnounceEvery: 100 * time.Millisecond, JitterFrac: 0.2, QuiescentMax: 30 * time.Second,
			Membership: &wsgossip.NodeMembership{
				Seeds: []string{"http://a/", "http://me/"}, Every: 2 * time.Second,
				SuspectAfter: 10 * time.Second, RemoveAfter: 20 * time.Second,
			},
			Delivery: &wsgossip.DeliveryConfig{},
			ProbeK:   -1, ProbeTimeout: 500 * time.Millisecond, AdmitRate: 200, AdmitBurst: 50,
			AggregateEvery: 500 * time.Millisecond, QueryWindow: 5 * time.Second,
			Queries: []wsgossip.ContinuousQuery{
				{Name: "nodes", Func: wsgossip.FuncCount}, {Name: "load", Func: wsgossip.FuncAvg},
			},
		}
		if !reflect.DeepEqual(n, want) {
			t.Fatalf("got  %+v\nwant %+v", n, want)
		}
	})
}
