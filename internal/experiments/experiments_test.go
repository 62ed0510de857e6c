package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"wsgossip/internal/epidemic"
	"wsgossip/internal/gossip"
)

func quickOpt() Options { return Options{Seed: 1, Quick: true} }

func mustCell(t *testing.T, tab Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d): %+v", tab.ID, row, col, tab.Rows)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(mustCell(t, tab, row, col), "%"), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric", tab.ID, row, col, mustCell(t, tab, row, col))
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"X — demo", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for i, want := range []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
		if got := All()[i].ID; got != want {
			t.Fatalf("registry position %d = %s, want %s (index order, not lexicographic)", i, got, want)
		}
	}
	if _, err := Find("E2"); err != nil {
		t.Fatalf("case-insensitive find failed: %v", err)
	}
	if _, err := Find("zz"); err == nil {
		t.Fatal("unknown id found")
	}
}

func TestE0Figure1(t *testing.T) {
	tables, err := E0Figure1(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	byMetric := map[string][]string{}
	for _, row := range tab.Rows {
		byMetric[row[0]] = row[1:]
	}
	if byMetric["coord_activations"][0] != "1" {
		t.Fatalf("activations = %v", byMetric["coord_activations"])
	}
	// Every disseminator's app must reach full coverage in both deployments.
	if byMetric["dissem_full_coverage"][0] != byMetric["dissem_total"][0] {
		t.Fatalf("figure-1 coverage incomplete: %v vs %v",
			byMetric["dissem_full_coverage"], byMetric["dissem_total"])
	}
	if byMetric["dissem_full_coverage"][1] != byMetric["dissem_total"][1] {
		t.Fatalf("scale-up coverage incomplete")
	}
	if byMetric["consumer_copies"][0] == "0" {
		t.Fatal("consumer never reached")
	}
}

func TestE1ScalabilityShape(t *testing.T) {
	tables, err := E1Scalability(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rounds must grow sublinearly: N grows 16x, rounds must grow < 4x.
	firstRounds := cellFloat(t, tab, 0, 2)
	lastRounds := cellFloat(t, tab, len(tab.Rows)-1, 2)
	if lastRounds <= firstRounds {
		t.Logf("rounds did not grow (%v -> %v); acceptable at small quick sizes", firstRounds, lastRounds)
	}
	if lastRounds > 4*firstRounds {
		t.Fatalf("rounds grew superlogarithmically: %v -> %v", firstRounds, lastRounds)
	}
	// Unicast completion must grow superlinearly relative to gossip's.
	firstUni := cellFloat(t, tab, 0, 7)
	lastUni := cellFloat(t, tab, len(tab.Rows)-1, 7)
	if lastUni < 4*firstUni {
		t.Fatalf("unicast baseline not linear: %v -> %v", firstUni, lastUni)
	}
	// msgs/node stays bounded near fanout.
	for i := range tab.Rows {
		if m := cellFloat(t, tab, i, 6); m > 6 {
			t.Fatalf("msgs/node = %v at row %d", m, i)
		}
	}
}

func TestE2CoverageMatchesModel(t *testing.T) {
	tables, err := E2FanoutCoverage(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := 0.0
	for i, row := range tab.Rows {
		measured := cellFloat(t, tab, i, 1)
		predicted := cellFloat(t, tab, i, 2)
		diff := measured - predicted
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.12 {
			t.Fatalf("f=%s: measured %v vs predicted %v", row[0], measured, predicted)
		}
		if measured < prev-0.05 {
			t.Fatalf("coverage decreased at f=%s", row[0])
		}
		prev = measured
	}
	// High fanout must approach 1.
	if last := cellFloat(t, tab, 7, 1); last < 0.99 {
		t.Fatalf("f=8 coverage = %v", last)
	}
}

// TestE3ResilienceShape holds E3a's 50 %-crash push cell to the epidemic
// model at seeds 1 to 8, trial by trial, instead of to a threshold at one
// seed. With half the targets crashed, push at fan-out 4 dies out early with
// probability q = ((1+q)/2)^4 ≈ 0.087 per trial: a die-out reaches under a
// fifth of the survivors, a take-off about 0.8 of them. So each seed's die-outs
// stay within the binomial bound of q at α = 0.01 (at most 1 of its 2 trials),
// and so do all seeds' together; and the take-off trials' mean coverage lies
// within three standard errors of the model's final size,
// epidemic.ExpectedCoverageLossy(128, 4, 12, 0.5) ≈ 0.798. E3b's loss gates
// are checked at seed 1.
func TestE3ResilienceShape(t *testing.T) {
	const n, crashPct, trials, dieOut, alpha = 128, 50, 2, 0.2, 0.01
	model, err := epidemic.ExpectedCoverageLossy(n, 4, 12, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := 0.5
	for i := 0; i < 200; i++ {
		q = math.Pow((1+q)/2, 4)
	}
	var takeoffs []float64
	dieOuts := 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// The trials E3Resilience runs for the cell at this seed.
			covs, err := crashTrials(n, seed+crashPct, crashPct, trials, gossip.StylePush, false)
			if err != nil {
				t.Fatal(err)
			}
			died := 0
			for _, c := range covs {
				if c < dieOut {
					died++
				} else {
					takeoffs = append(takeoffs, c)
				}
			}
			dieOuts += died
			if bound := binomialBound(trials, q, alpha); died > bound {
				t.Errorf("%d of %d trials died out (coverage %v), bound %d at q=%.3f", died, trials, covs, bound, q)
			}
		})
	}
	if bound := binomialBound(8*trials, q, alpha); dieOuts > bound {
		t.Errorf("%d of %d trials died out, bound %d at q=%.3f", dieOuts, 8*trials, bound, q)
	}
	if len(takeoffs) < 2 {
		t.Fatalf("%d trials took off", len(takeoffs))
	}
	var mean, ss float64
	for _, c := range takeoffs {
		mean += c / float64(len(takeoffs))
	}
	for _, c := range takeoffs {
		ss += (c - mean) * (c - mean)
	}
	se := math.Sqrt(ss / float64(len(takeoffs)-1) / float64(len(takeoffs)))
	t.Logf("take-off coverage %.3f ± %.3f over %d trials, model %.3f; %d die-outs", mean, 3*se, len(takeoffs), model, dieOuts)
	if math.Abs(mean-model) > 3*se {
		t.Errorf("take-off coverage %.3f ± %.3f (3 s.e., %d trials) excludes the model's %.3f", mean, 3*se, len(takeoffs), model)
	}

	tables, err := E3Resilience(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	loss := tables[1]
	// Under 40% loss: push-pull must out-deliver the broker decisively.
	lastLoss := len(loss.Rows) - 1
	pp := cellFloat(t, loss, lastLoss, 2)
	broker := cellFloat(t, loss, lastLoss, 3)
	if pp < 0.95 {
		t.Fatalf("push-pull at 40%% loss = %v", pp)
	}
	if broker > 0.75 {
		t.Fatalf("broker at 40%% loss = %v, should lose ~40%%", broker)
	}
}

// binomialBound is the least k with P(X > k) < alpha for X ~ Binomial(n, p).
func binomialBound(n int, p, alpha float64) int {
	tail := 1.0
	for k := 0; k < n; k++ {
		tail -= float64(binomial(n, k)) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		if tail < alpha {
			return k
		}
	}
	return n
}

// binomial is n choose k.
func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

func TestE4ThroughputShape(t *testing.T) {
	tables, err := E4Throughput(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// pbcast healthy throughput at max perturbation must stay within 25% of
	// the unperturbed value; ackmc must collapse by >5x.
	first := len(tab.Rows) - len(tab.Rows) // 0
	last := len(tab.Rows) - 1
	pbFirst := cellFloat(t, tab, first, 1)
	pbLast := cellFloat(t, tab, last, 1)
	ackFirst := cellFloat(t, tab, first, 3)
	ackLast := cellFloat(t, tab, last, 3)
	if pbLast < 0.75*pbFirst {
		t.Fatalf("pbcast throughput collapsed: %v -> %v", pbFirst, pbLast)
	}
	if ackLast > ackFirst/5 {
		t.Fatalf("ackmc did not collapse: %v -> %v", ackFirst, ackLast)
	}
	// Perturbed nodes still recover most messages.
	if rec := cellFloat(t, tab, last, 2); rec < 0.9 {
		t.Fatalf("perturbed recovery = %v", rec)
	}
}

func TestE5LoadShape(t *testing.T) {
	tables, err := E5Load(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	for i := range tab.Rows {
		n := cellFloat(t, tab, i, 0)
		mean := cellFloat(t, tab, i, 1)
		broker := cellFloat(t, tab, i, 3)
		if mean > 4 {
			t.Fatalf("gossip mean load %v at N=%v", mean, n)
		}
		if broker != n {
			t.Fatalf("broker load %v != N=%v", broker, n)
		}
	}
}

func TestE6ModelAgreement(t *testing.T) {
	tables, err := E6ParameterTable(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	grid := tables[0]
	for i := range grid.Rows {
		if diff := cellFloat(t, grid, i, 4); diff > 0.15 {
			t.Fatalf("row %v: model disagreement %v", grid.Rows[i], diff)
		}
	}
	sizing := tables[1]
	if len(sizing.Rows) != 4 {
		t.Fatalf("sizing rows = %d", len(sizing.Rows))
	}
	for i := range sizing.Rows {
		// f=3 (final size ~0.94) can never reach 99% coverage.
		if got := mustCell(t, sizing, i, 1); got != "n/a" {
			t.Fatalf("f=3 at row %d = %q, want n/a", i, got)
		}
		// f=6 always reaches it within the cap.
		if got := mustCell(t, sizing, i, 4); got == "n/a" {
			t.Fatalf("f=6 at row %d unreachable", i)
		}
	}
}

func TestE7OverheadChecks(t *testing.T) {
	tables, err := E7Overhead(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	check := tables[1]
	for _, row := range check.Rows {
		if row[1] != "pass" {
			t.Fatalf("consumer-unchanged check failed: %v", row)
		}
	}
	// Envelope codec must be sub-millisecond per op.
	perf := tables[0]
	if ns := cellFloat(t, perf, 0, 1); ns > 1e6 {
		t.Fatalf("encode = %v ns", ns)
	}
}

func TestE8Consistency(t *testing.T) {
	tables, err := E8DistributedCoordinator(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	for i, row := range tab.Rows {
		if row[1] != "yes" {
			t.Fatalf("row %d views inconsistent: %v", i, row)
		}
	}
	// k=1 has zero replications; k=8 the most.
	if r0 := cellFloat(t, tab, 0, 5); r0 != 0 {
		t.Fatalf("k=1 replications = %v", r0)
	}
	if rLast := cellFloat(t, tab, len(tab.Rows)-1, 5); rLast == 0 {
		t.Fatal("k=8 had no replications")
	}
}

func TestA1StylesShape(t *testing.T) {
	tables, err := A1Styles(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	byStyle := map[string][]string{}
	for _, row := range tab.Rows {
		byStyle[row[0]] = row
	}
	for _, style := range []string{"push", "lazypush", "pull", "pushpull", "flood"} {
		if _, ok := byStyle[style]; !ok {
			t.Fatalf("style %s missing", style)
		}
	}
	floodMsgs, _ := strconv.ParseFloat(byStyle["flood"][2], 64)
	pushMsgs, _ := strconv.ParseFloat(byStyle["push"][2], 64)
	if floodMsgs <= pushMsgs {
		t.Fatalf("flood (%v) not costlier than push (%v)", floodMsgs, pushMsgs)
	}
	lazyMsgs, _ := strconv.ParseFloat(byStyle["lazypush"][2], 64)
	if lazyMsgs >= pushMsgs {
		t.Fatalf("lazy push payloads (%v) not below push (%v)", lazyMsgs, pushMsgs)
	}
}

func TestA2DedupShape(t *testing.T) {
	tables, err := A2DedupCache(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	small := cellFloat(t, tab, 0, 1)
	large := cellFloat(t, tab, len(tab.Rows)-1, 1)
	if large > small {
		t.Fatalf("bigger cache produced more redeliveries: %v -> %v", small, large)
	}
	if large != 0 {
		t.Fatalf("large cache redeliveries = %v, want 0", large)
	}
}

func TestA3AssignmentShape(t *testing.T) {
	tables, err := A3TargetAssignment(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	balanced := cellFloat(t, tab, 0, 1)
	random := cellFloat(t, tab, 1, 1)
	if balanced < 0.95 {
		t.Fatalf("balanced mean delivery = %v", balanced)
	}
	// Balanced must not be worse than random.
	if balanced < random-0.02 {
		t.Fatalf("balanced (%v) worse than random (%v)", balanced, random)
	}
	balancedWorst := cellFloat(t, tab, 0, 3)
	randomWorst := cellFloat(t, tab, 1, 3)
	if balancedWorst > randomWorst {
		t.Fatalf("balanced worst miss (%v) exceeds random (%v)", balancedWorst, randomWorst)
	}
}

func TestE9ChurnShape(t *testing.T) {
	tables, err := E9Churn(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, phase := range []string{"pre-churn", "during churn", "post-churn"} {
		if got := mustCell(t, tab, i, 0); got != phase {
			t.Fatalf("row %d phase = %q", i, got)
		}
		if cov := cellFloat(t, tab, i, 2); cov < 0.95 {
			t.Fatalf("%s coverage = %v", phase, cov)
		}
	}
}

func TestE12WindowSizingShape(t *testing.T) {
	tables, err := E12WindowSizing(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Seed identity: these columns are integer event counts over fixed
	// divisors, so at the quick size and seed 1 they are exact. Any change to
	// an RNG draw, the send order or the retry/dedup rules inside the shared
	// exchange machine moves at least one of them.
	pinned := [][3]string{
		{"57.328", "20.812", "10.000"},
		{"115.500", "44.562", "20.750"},
		{"230.531", "86.750", "42.312"},
		{"458.609", "170.875", "81.125"},
	}
	for i, fanout := range []string{"1", "2", "4", "8"} {
		if got := mustCell(t, tab, i, 0); got != fanout {
			t.Fatalf("row %d fanout = %q", i, got)
		}
		got := [3]string{mustCell(t, tab, i, 3), mustCell(t, tab, i, 5), mustCell(t, tab, i, 6)}
		if got != pinned[i] {
			t.Fatalf("fanout %s msgs/node/epoch, retries/node, dups/node = %v, want %v", fanout, got, pinned[i])
		}
		// The ablation varies share sizing; conservation may not.
		if got := mustCell(t, tab, i, 2); got != "0" {
			t.Fatalf("fanout %s mass_err_max = %q, want exactly 0", fanout, got)
		}
		if rel := cellFloat(t, tab, i, 1); rel > 0.05 {
			t.Fatalf("fanout %s worst_rel_err = %v", fanout, rel)
		}
	}
}
