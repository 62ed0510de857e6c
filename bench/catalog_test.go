package main

import (
	"bytes"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver reads; the catalog is what the program
// prints. The file is `bench -contract`, byte for byte.
func TestCatalogMatchesContract(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with: bash bench/run.sh -contract > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricInfo(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("%s listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}
