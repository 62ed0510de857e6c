package faults

import (
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"wsgossip/internal/clock"
)

func TestParseSetRanges(t *testing.T) {
	got, err := parseSet("n{00..02},m7,x{8..10}s")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n00", "n01", "n02", "m7", "x8s", "x9s", "x10s"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s, err := parseSet("*"); err != nil || s != nil {
		t.Fatalf("'*' = (%v, %v), want nil set", s, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"oops cut a->b",       // bad time
		"1s cut ab",           // bad link
		"1s loss 1.5",         // bad probability
		"1s frobnicate a",     // unknown op
		"1s nat x r1",         // missing 'via'
		"1s cut a->b name=",   // empty name
		"1s cut *<->b",        // '*' cannot be bidirectional
		"1s cut n{9..2}->b",   // inverted range
		"1s heal-all surplus", // surplus argument
		"1s",                  // no operation
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestPlanSchedule drives a full composition over a virtual clock and
// checks each operation takes effect at its time and heals on cue.
func TestPlanSchedule(t *testing.T) {
	const src = `
# four-fault composition
100ms loss 0.5
100ms cut a->b name=ab
200ms partition g1,g2 name=split
200ms nat x via r
300ms crash c1,c2
400ms recover c1
500ms heal ab
500ms heal split
500ms un-nat x
600ms heal-all
`
	plan, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Duration(); got != 600*time.Millisecond {
		t.Fatalf("Duration = %v, want 600ms", got)
	}
	clk := clock.NewVirtual()
	tbl := NewTable()
	crashed := map[string]bool{}
	a := Applier{
		Table:   tbl,
		Crash:   func(n string) { crashed[n] = true },
		Recover: func(n string) { delete(crashed, n) },
	}
	if err := plan.Schedule(clk, a); err != nil {
		t.Fatal(err)
	}

	clk.Advance(100 * time.Millisecond)
	if got := tbl.Loss(); got != 0.5 {
		t.Fatalf("loss after 100ms = %v", got)
	}
	if d := tbl.Check("a", "b"); d.Outcome != Drop {
		t.Fatalf("a->b after 100ms = %+v", d)
	}
	clk.Advance(100 * time.Millisecond)
	if d := tbl.Check("g1", "other"); d.Outcome != Drop {
		t.Fatalf("partition not applied: %+v", d)
	}
	if d := tbl.Check("y", "x"); d.Outcome != Refuse {
		t.Fatalf("nat not applied: %+v", d)
	}
	clk.Advance(100 * time.Millisecond)
	if !crashed["c1"] || !crashed["c2"] {
		t.Fatalf("crash not applied: %v", crashed)
	}
	clk.Advance(100 * time.Millisecond)
	if crashed["c1"] || !crashed["c2"] {
		t.Fatalf("recover not applied: %v", crashed)
	}
	clk.Advance(100 * time.Millisecond)
	if d := tbl.Check("a", "b"); d.Outcome != Deliver {
		t.Fatalf("heal ab not applied: %+v", d)
	}
	if d := tbl.Check("g1", "other"); d.Outcome != Deliver {
		t.Fatalf("heal split not applied: %+v", d)
	}
	if d := tbl.Check("y", "x"); d.Outcome != Deliver {
		t.Fatalf("un-nat not applied: %+v", d)
	}
	clk.Advance(100 * time.Millisecond)
	if tbl.Active() {
		t.Fatal("heal-all left the table active")
	}
}

func TestPlanValidateMissingHooks(t *testing.T) {
	plan, err := ParsePlan("1s crash a")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(Applier{Table: NewTable()}); err == nil {
		t.Fatal("Validate accepted a crash plan without a Crash hook")
	}
	if err := plan.Validate(Applier{}); err == nil {
		t.Fatal("Validate accepted a nil Table")
	}
}

// replaySrc heals a rule by its default name, so it replays identically only
// if that name, which carries the rule's source line, survives.
const replaySrc = `
0ms   loss 0.2
10ms  cut a->b
20ms  link-loss b->a 0.4 name=lb
30ms  heal cut@3
`

// replay runs plan over a fixed stream of seeded traffic and returns the
// table's accounting.
func replay(t *testing.T, plan *Plan) (Totals, map[string]int64) {
	t.Helper()
	clk := clock.NewVirtual()
	tbl := NewTable()
	if err := plan.Schedule(clk, Applier{Table: tbl}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 50; step++ {
		clk.Advance(time.Millisecond)
		for _, link := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}} {
			if d := tbl.Check(link[0], link[1]); d.Outcome != Deliver {
				continue
			}
			tbl.Lossy(link[0], link[1], rng)
		}
	}
	return tbl.Totals(), tbl.Counts()
}

// TestPlanReplayDeterminism applies the same plan over the same seeded
// traffic twice and requires identical per-rule accounting — the property
// the simulator's byte-identical-report CI check rests on.
func TestPlanReplayDeterminism(t *testing.T) {
	run := func() (Totals, map[string]int64) {
		plan, err := ParsePlan(replaySrc)
		if err != nil {
			t.Fatal(err)
		}
		return replay(t, plan)
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 {
		t.Fatalf("totals differ across replays: %+v vs %+v", t1, t2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("counts differ: %v vs %v", c1, c2)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("count %q differs: %d vs %d", k, v, c2[k])
		}
	}
	if t1.Sum() == 0 {
		t.Fatal("plan affected no traffic; the determinism check proved nothing")
	}
}

// committedPlans returns the fault plans the repository ships, by name.
func committedPlans(tb testing.TB) map[string]string {
	tb.Helper()
	files, err := filepath.Glob("../../examples/faultplans/*.plan")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no committed plans: %v", err)
	}
	plans := map[string]string{"replay": replaySrc}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		plans[filepath.Base(f)] = string(src)
	}
	return plans
}

// checkRoundTrip requires ParsePlan(p.String()) to yield p's events, and
// printing that plan again to give the same text.
func checkRoundTrip(t *testing.T, p *Plan) *Plan {
	t.Helper()
	text := p.String()
	q, err := ParsePlan(text)
	if err != nil {
		t.Fatalf("ParsePlan(String()) = %v\n%s", err, text)
	}
	same := func(a, b Event) bool {
		return a.At == b.At && a.Op == b.Op && a.line == b.line && a.needsCrash == b.needsCrash && a.needsRecover == b.needsRecover
	}
	if !slices.EqualFunc(p.events, q.events, same) {
		t.Fatalf("round trip changed the plan:\n%s\nbecame\n%s", text, q.String())
	}
	if again := q.String(); again != text {
		t.Fatalf("printing is not a fixpoint:\n%s\nthen\n%s", text, again)
	}
	return q
}

// TestPlanStringRoundTrip: every committed plan prints to text that parses
// back to the same events, and the reprinted replay plan heals its rule by
// the same default name, so it drives the same traffic to the same counts.
func TestPlanStringRoundTrip(t *testing.T) {
	for name, src := range committedPlans(t) {
		p, err := ParsePlan(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRoundTrip(t, p)
	}
	p, err := ParsePlan(replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	t1, c1 := replay(t, p)
	t2, c2 := replay(t, checkRoundTrip(t, p))
	if t1 != t2 || !maps.Equal(c1, c2) {
		t.Fatalf("reprinted plan replays differently: %+v %v vs %+v %v", t1, c1, t2, c2)
	}
	if (&Plan{}).String() != "" {
		t.Fatal("an empty plan prints text")
	}
}

// ranges finds the "{lo..hi}" ranges of a source.
var ranges = regexp.MustCompile(`\{(\d+)\.\.(\d+)\}`)

// expandsLarge reports whether src holds a range naming more than a thousand
// addresses: a fuzzed plan that expands one only spends the fuzzer's memory.
func expandsLarge(src string) bool {
	for _, m := range ranges.FindAllStringSubmatch(src, -1) {
		lo, err1 := strconv.Atoi(m[1])
		hi, err2 := strconv.Atoi(m[2])
		if err1 != nil || err2 != nil || hi-lo > 1000 {
			return true
		}
	}
	return false
}

// FuzzPlanRoundTrip: whatever plan ParsePlan accepts, String prints text that
// parses back to the same events and prints again to the same text. Seeded
// from the committed plans.
func FuzzPlanRoundTrip(f *testing.F) {
	for _, src := range committedPlans(f) {
		f.Add(src)
	}
	f.Add("1s cut a->b\n\n\n# gap\n0s heal cut@1\n2.5s crash n{08..11}\n")
	f.Fuzz(func(t *testing.T, src string) {
		if expandsLarge(src) {
			t.Skip("range too large to expand")
		}
		p, err := ParsePlan(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
	})
}
