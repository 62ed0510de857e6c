package faults

import (
	"math/rand"
	"testing"
	"time"
)

func TestTableDirectionalRules(t *testing.T) {
	tbl := NewTable()
	tbl.RefuseLink("r1", []string{"a"}, []string{"b"})
	tbl.Cut("c1", []string{"c"}, nil)

	if d := tbl.Check("a", "b"); d.Outcome != Refuse || d.Rule != "r1" {
		t.Fatalf("a->b = %+v, want refuse by r1", d)
	}
	// Asymmetry is native: the reverse direction is untouched.
	if d := tbl.Check("b", "a"); d.Outcome != Deliver {
		t.Fatalf("b->a = %+v, want deliver", d)
	}
	// nil 'to' set matches any destination.
	if d := tbl.Check("c", "zzz"); d.Outcome != Drop || d.Rule != "c1" {
		t.Fatalf("c->zzz = %+v, want drop by c1", d)
	}
	if d := tbl.Check("zzz", "c"); d.Outcome != Deliver {
		t.Fatalf("zzz->c = %+v, want deliver", d)
	}

	tbl.Heal("r1")
	if d := tbl.Check("a", "b"); d.Outcome != Deliver {
		t.Fatalf("after heal a->b = %+v, want deliver", d)
	}
	got := tbl.Counts()
	if got["r1"] != 1 || got["c1"] != 1 {
		t.Fatalf("counts = %v, want r1:1 c1:1", got)
	}
	if tot := tbl.Totals(); tot.Refused != 1 || tot.Dropped != 1 || tot.Lost != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestTableRefuseWinsOverDrop(t *testing.T) {
	tbl := NewTable()
	tbl.Cut("cut", []string{"a"}, []string{"b"})
	tbl.RefuseLink("ref", []string{"a"}, []string{"b"})
	if d := tbl.Check("a", "b"); d.Outcome != Refuse || d.Rule != "ref" {
		t.Fatalf("check = %+v, want the refuse rule to win", d)
	}
}

func TestTablePartitionRule(t *testing.T) {
	tbl := NewTable()
	tbl.Partition("split", []string{"a", "b"})
	cases := []struct {
		from, to string
		want     Outcome
	}{
		{"a", "b", Deliver}, // same side
		{"c", "d", Deliver}, // same (complement) side
		{"a", "c", Drop},    // crossing
		{"c", "b", Drop},    // crossing, other direction
	}
	for _, c := range cases {
		if d := tbl.Check(c.from, c.to); d.Outcome != c.want {
			t.Fatalf("%s->%s = %v, want %v", c.from, c.to, d.Outcome, c.want)
		}
	}
}

func TestTableNAT(t *testing.T) {
	tbl := NewTable()
	tbl.SetNAT("x", "relay1", "relay2")
	if d := tbl.Check("peer", "x"); d.Outcome != Refuse || d.Rule != RuleNATPrefix+"x" {
		t.Fatalf("peer->x = %+v, want NAT refusal", d)
	}
	if d := tbl.Check("relay1", "x"); d.Outcome != Deliver {
		t.Fatalf("relay1->x = %+v, want deliver", d)
	}
	// Outbound from the NAT'd node is unrestricted.
	if d := tbl.Check("x", "peer"); d.Outcome != Deliver {
		t.Fatalf("x->peer = %+v, want deliver", d)
	}
	tbl.ClearNAT("x")
	if d := tbl.Check("peer", "x"); d.Outcome != Deliver {
		t.Fatalf("after ClearNAT peer->x = %+v, want deliver", d)
	}
}

// TestTableLossyStreamInvariant pins the determinism contract: Lossy always
// consumes exactly one RNG draw, so a table with no loss configured leaves
// the caller's random stream identical to not consulting it at all.
func TestTableLossyStreamInvariant(t *testing.T) {
	const draws = 1000
	ref := rand.New(rand.NewSource(42))
	var want []float64
	for i := 0; i < draws; i++ {
		want = append(want, ref.Float64())
	}

	tbl := NewTable()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < draws; i++ {
		if tbl.Lossy("a", "b", rng) {
			t.Fatal("zero-loss table lost a message")
		}
	}
	after := rand.New(rand.NewSource(42))
	for i := 0; i < draws; i++ {
		if got := after.Float64(); got != want[i] {
			t.Fatalf("draw %d: stream diverged", i)
		}
	}
}

func TestTableLossyCombinesAndCounts(t *testing.T) {
	tbl := NewTable()
	tbl.SetLoss(1) // certain loss
	rng := rand.New(rand.NewSource(1))
	if !tbl.Lossy("a", "b", rng) {
		t.Fatal("p=1 did not lose")
	}
	if got := tbl.Counts()[RuleLoss]; got != 1 {
		t.Fatalf("global loss count = %d, want 1", got)
	}
	tbl.SetLoss(0)
	tbl.LinkLoss("ll", []string{"a"}, []string{"b"}, 1)
	if !tbl.Lossy("a", "b", rng) {
		t.Fatal("link loss p=1 did not lose")
	}
	if tbl.Lossy("b", "a", rng) {
		t.Fatal("link loss hit the reverse direction")
	}
	if got := tbl.Counts()["ll"]; got != 1 {
		t.Fatalf("link loss count = %d, want 1", got)
	}
	if tot := tbl.Totals(); tot.Lost != 2 {
		t.Fatalf("lost total = %d, want 2", tot.Lost)
	}
}

func TestTableExtraDelay(t *testing.T) {
	tbl := NewTable()
	tbl.LinkDelay("d1", []string{"a"}, []string{"b"}, 10*time.Millisecond)
	tbl.LinkDelay("d2", []string{"a"}, nil, 5*time.Millisecond)
	if got := tbl.ExtraDelay("a", "b"); got != 15*time.Millisecond {
		t.Fatalf("a->b delay = %v, want 15ms", got)
	}
	if got := tbl.ExtraDelay("b", "a"); got != 0 {
		t.Fatalf("b->a delay = %v, want 0", got)
	}
}

func TestTableHealAll(t *testing.T) {
	tbl := NewTable()
	tbl.Cut("c", []string{"a"}, []string{"b"})
	tbl.SetNAT("x", "r")
	tbl.SetLoss(0.5)
	if !tbl.Active() {
		t.Fatal("table with rules reports inactive")
	}
	tbl.HealAll()
	if tbl.Active() {
		t.Fatal("healed table reports active")
	}
	if d := tbl.Check("a", "b"); d.Outcome != Deliver {
		t.Fatalf("healed a->b = %+v", d)
	}
}
