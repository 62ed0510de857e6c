package experiments

import (
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/gossip"
)

// Two scale runs with equal options must produce identical summaries: every
// reported field derives from the seeded virtual-time simulation, never from
// wall-clock, goroutine scheduling, or map iteration order. This is the
// in-process form of the CI scale smoke's run-twice diff.

func TestScaleCoverageDeterministic(t *testing.T) {
	opt := ScaleOptions{N: 5000, Fanout: 3, Events: 2, Loss: 0.05, Seed: 42}
	a, err := ScaleCoverage(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleCoverage(opt)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("scale coverage summaries differ between identical runs:\n  first:  %+v\n  second: %+v", *a, *b)
	}
	if a.Coverage < 0.5 {
		t.Fatalf("implausibly low coverage %v", a.Coverage)
	}
	if a.Coverage-a.Analytic > 0.1 || a.Analytic-a.Coverage > 0.1 {
		t.Fatalf("coverage %v strays from analytic prediction %v", a.Coverage, a.Analytic)
	}
}

func TestScaleChurnDeterministic(t *testing.T) {
	opt := ScaleOptions{N: 5000, Fanout: 3, Churn: 0.2, Seed: 42}
	a, err := ScaleChurn(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleChurn(opt)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("scale churn summaries differ between identical runs:\n  first:  %+v\n  second: %+v", *a, *b)
	}
	if a.PostCoverage < 0.5 || a.PostCoverage >= a.PreCoverage {
		t.Fatalf("churn coverage out of shape: pre=%v post=%v", a.PreCoverage, a.PostCoverage)
	}
	if a.PostCoverage-a.Analytic > 0.1 || a.Analytic-a.PostCoverage > 0.1 {
		t.Fatalf("post-churn coverage %v strays from analytic prediction %v", a.PostCoverage, a.Analytic)
	}
}

// TestScaleCoverageLargeDeterministic is the acceptance-size run: an
// E1-style coverage point at N=10^5 must stay byte-identical across runs,
// including under the race detector. Skipped with -short so the quick
// developer loop stays quick.
func TestScaleCoverageLargeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N scale run; skipped in -short mode")
	}
	opt := ScaleOptions{N: 100000, Fanout: 3, Seed: 3}
	a, err := ScaleCoverage(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleCoverage(opt)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("large scale summaries differ between identical runs:\n  first:  %+v\n  second: %+v", *a, *b)
	}
	if a.Coverage < 0.9 {
		t.Fatalf("coverage %v below the lossless large-N expectation", a.Coverage)
	}
}

// TestUniformPeersSampling pins the rejection sampler's contract:
// distinctness, exclusion, and the fallback to the shuffle sampler when the
// request covers most of the set.
func TestUniformPeersSampling(t *testing.T) {
	addrs := make([]string, 100)
	for i := range addrs {
		addrs[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	p := gossip.NewUniformPeers(addrs)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		got := p.SelectPeers(rng, 5, addrs[trial%len(addrs)])
		if len(got) != 5 {
			t.Fatalf("trial %d: got %d peers, want 5", trial, len(got))
		}
		seen := map[string]bool{}
		for _, a := range got {
			if a == addrs[trial%len(addrs)] {
				t.Fatalf("trial %d: excluded address %q sampled", trial, a)
			}
			if seen[a] {
				t.Fatalf("trial %d: duplicate %q", trial, a)
			}
			seen[a] = true
		}
	}
	// Requesting the whole set routes through the shuffle sampler and must
	// still honor the exclusion.
	all := p.SelectPeers(rng, -1, addrs[0])
	if len(all) != len(addrs)-1 {
		t.Fatalf("full draw returned %d peers, want %d", len(all), len(addrs)-1)
	}
	for _, a := range all {
		if a == addrs[0] {
			t.Fatal("excluded address present in full draw")
		}
	}
	// Determinism: same seed, same draws.
	r1 := p.SelectPeers(rand.New(rand.NewSource(9)), 5, "")
	r2 := p.SelectPeers(rand.New(rand.NewSource(9)), 5, "")
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("same-seed draws differ: %v vs %v", r1, r2)
		}
	}
}

// quantile runs over every delivery latency of a scale run (10^5 and more
// values), so it must sort in n·log n: the insertion sort it used to carry
// took minutes there. Nearest-rank results are pinned on a shuffled
// permutation, where the answer is known in closed form.
func TestQuantileLargeInput(t *testing.T) {
	const n = 100_000
	vals := make([]float64, n)
	for i, p := range rand.New(rand.NewSource(7)).Perm(n) {
		vals[i] = float64(p + 1) // 1..n, shuffled
	}
	start := time.Now()
	p50, p99, max := quantile(vals, 0.5), quantile(vals, 0.99), quantile(vals, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("three quantiles of %d values took %v, want well under a second", n, elapsed)
	}
	if p50 != n/2 || p99 != 0.99*n || max != n {
		t.Errorf("quantiles = %v, %v, %v; want %v, %v, %v", p50, p99, max, n/2, 0.99*n, n)
	}
	if vals[0] == 1 && vals[1] == 2 && vals[2] == 3 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
