package main

import (
	"wsgossip/bench/fabric"
	"wsgossip/internal/faults"
)

// The self-checks. A run whose check fails reports correct=false and the
// process exits non-zero. checks_test.go proves each one fires.

// checkTracker: every application got each notification at most once, and
// every payload it got matched its checksum.
func (r *result) checkTracker(t *tracker) {
	if n := t.dupes.Load(); n != 0 {
		r.problemf("%d notifications were delivered to an application twice", n)
	}
	if n := t.corrupt.Load(); n != 0 {
		r.problemf("%d deliveries carried a damaged or unreadable body", n)
	}
}

// checkCoverage: the run reached the epidemic model's coverage within 0.02.
func (r *result) checkCoverage(coverage, expected float64) {
	if coverage == 0 {
		r.problemf("no deliveries in the measured phase")
	} else if coverage < expected-0.02 {
		r.problemf("coverage %.4f below the analytic %.4f - 0.02", coverage, expected)
	}
}

// lateLimitMs bounds how late the open-loop generator may run.
const lateLimitMs = 10

// checkLate: the open loop stayed open. One stall of the box delays the
// next few notifications and can lift the 99th percentile by itself; a
// generator that cannot keep the schedule is late on many, so the check is
// on the 90th percentile (the 99th is reported).
func (r *result) checkLate(lateMs []float64) {
	if v := quantile(lateMs, 0.9); v > lateLimitMs {
		r.problemf("the load generator ran %.1f ms late at the 90th percentile (limit %d ms): the loop is no longer open", v, lateLimitMs)
	}
}

// checkShed: the admission gates, sized never to shed, shed nothing.
func (r *result) checkShed(shed float64) {
	if shed != 0 {
		r.problemf("the admission gates shed %.0f requests; the workload is sized never to shed", shed)
	}
}

// checkMass: the push-sum conservation ledger read exactly zero at every sample.
func (r *result) checkMass(massErrMax float64) {
	if massErrMax != 0 {
		r.problemf("aggregate_mass_error reached %g; the conservation ledger must read exactly 0", massErrMax)
	}
}

// accounting is what the fault table, the fabric, the harness taps and the
// delivery planes each counted of the same events.
type accounting struct {
	fabric            fabric.Stats
	table             faults.Totals
	planeFailures     float64 // delivery_attempt_failures_total{kind=transport}, all planes
	tapErrs           float64 // failed sends seen by every binding tap
	tapErrsUnderPlane float64 // failed sends seen by the taps under a plane
}

// checkAccounting holds them to one story: every refusal the table ruled
// is a refusal the fabric reported and a failed send a tap saw, every
// refused send under a plane is a transport failure that plane counted,
// and every fault drop the table ruled is one the fabric made.
func (r *result) checkAccounting(a accounting) {
	if a.fabric.Refused != a.table.Refused {
		r.problemf("fabric refused %d sends, the fault table ruled %d refusals", a.fabric.Refused, a.table.Refused)
	}
	if a.fabric.FaultDropped != a.table.Dropped+a.table.Lost {
		r.problemf("fabric dropped %d sends to faults, the fault table ruled %d", a.fabric.FaultDropped, a.table.Dropped+a.table.Lost)
	}
	if a.tapErrs != float64(a.fabric.Refused) {
		r.problemf("taps saw %.0f failed sends, the fabric refused %d", a.tapErrs, a.fabric.Refused)
	}
	if a.planeFailures != a.tapErrsUnderPlane {
		r.problemf("planes counted %.0f transport failures, %.0f sends under a plane were refused", a.planeFailures, a.tapErrsUnderPlane)
	}
}
