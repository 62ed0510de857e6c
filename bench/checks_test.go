package main

import (
	"context"
	"encoding/xml"
	"strings"
	"testing"

	"wsgossip/bench/fabric"
	"wsgossip/internal/faults"
	"wsgossip/internal/soap"
)

// wantProblem asserts that exactly one self-check fired and names what.
func wantProblem(t *testing.T, r *result, fragment string) {
	t.Helper()
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], fragment) {
		t.Errorf("problems = %q, want one mentioning %q", r.problems, fragment)
	}
}

func deliver(t *testing.T, app soap.Handler, body any) {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetBody(body); err != nil {
		t.Fatal(err)
	}
	if _, err := app.HandleSOAP(context.Background(), &soap.Request{Envelope: env}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckExactlyOnce(t *testing.T) {
	tr := newTracker(2, 4, func() int64 { return 0 })
	pay := newPayloads(1, 64)
	deliver(t, tr.app(0), pay.note(3))
	r := newResult()
	r.checkTracker(tr)
	if len(r.problems) != 0 {
		t.Fatalf("one clean delivery: %q", r.problems)
	}
	deliver(t, tr.app(0), pay.note(3)) // the same application gets it again
	r.checkTracker(tr)
	wantProblem(t, r, "twice")
	if got := tr.delivered.Load(); got != 1 {
		t.Errorf("delivered = %d, want 1: a duplicate is not a delivery", got)
	}
}

func TestCheckBodyChecksum(t *testing.T) {
	tr := newTracker(1, 4, func() int64 { return 0 })
	n := newPayloads(1, 64).note(2)
	n.Data = n.Data[:len(n.Data)-1] + "!" // one byte flipped in flight
	deliver(t, tr.app(0), n)
	r := newResult()
	r.checkTracker(tr)
	wantProblem(t, r, "damaged")

	// A body that is not a note at all counts the same way.
	tr = newTracker(1, 4, func() int64 { return 0 })
	deliver(t, tr.app(0), struct {
		XMLName xml.Name `xml:"urn:other Thing"`
	}{})
	r = newResult()
	r.checkTracker(tr)
	wantProblem(t, r, "damaged")
}

func TestCheckCoverage(t *testing.T) {
	r := newResult()
	r.checkCoverage(0.975, 0.99)
	if len(r.problems) != 0 {
		t.Fatalf("within 0.02 of the model: %q", r.problems)
	}
	r.checkCoverage(0.96, 0.99)
	wantProblem(t, r, "below the analytic")
	r = newResult()
	r.checkCoverage(0, 0.99)
	wantProblem(t, r, "no deliveries")
}

func TestCheckShedAndLate(t *testing.T) {
	r := newResult()
	r.checkShed(0)
	onTime := make([]float64, 100)
	onTime[99] = 80 // one stall does not close the loop
	r.checkLate(onTime)
	if len(r.problems) != 0 {
		t.Fatalf("healthy open loop: %q", r.problems)
	}
	r.checkShed(3)
	wantProblem(t, r, "shed 3")
	r = newResult()
	backlog := make([]float64, 100)
	for i := 80; i < 100; i++ {
		backlog[i] = 25
	}
	r.checkLate(backlog)
	wantProblem(t, r, "no longer open")
}

func TestCheckMass(t *testing.T) {
	r := newResult()
	r.checkMass(0)
	if len(r.problems) != 0 {
		t.Fatal(r.problems)
	}
	r.checkMass(1e-6)
	wantProblem(t, r, "aggregate_mass_error")
}

func TestCheckAccounting(t *testing.T) {
	good := accounting{
		fabric:        fabric.Stats{Refused: 7, FaultDropped: 12},
		table:         faults.Totals{Refused: 7, Dropped: 4, Lost: 8},
		planeFailures: 5, tapErrsUnderPlane: 5, tapErrs: 7,
	}
	r := newResult()
	r.checkAccounting(good)
	if len(r.problems) != 0 {
		t.Fatalf("consistent counters: %q", r.problems)
	}
	for name, c := range map[string]struct {
		break_ func(*accounting)
		want   string
	}{
		"refusal the fabric did not report": {func(a *accounting) { a.table.Refused++; a.tapErrs++ }, "fault table ruled 8 refusals"},
		"drop the table did not rule":       {func(a *accounting) { a.fabric.FaultDropped++ }, "dropped 13 sends"},
		"failure a plane did not count":     {func(a *accounting) { a.planeFailures-- }, "planes counted 4"},
		"failed send a tap missed":          {func(a *accounting) { a.tapErrs-- }, "taps saw 6"},
	} {
		a := good
		c.break_(&a)
		r := newResult()
		r.checkAccounting(a)
		if len(r.problems) == 0 || !strings.Contains(strings.Join(r.problems, "; "), c.want) {
			t.Errorf("%s: problems = %q, want %q", name, r.problems, c.want)
		}
	}
}
