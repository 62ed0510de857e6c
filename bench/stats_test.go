package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median and statistics.quantiles(v, n=4) of these samples.
	v := []float64{7, 1, 3, 9, 5, 11, 2, 8, 4, 10}
	if got := median(v); got != 6 {
		t.Errorf("median = %v, want 6", got)
	}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 9.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 9.25", q1, q3)
	}
	odd := []float64{5, 1, 4, 2, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	q1, q3 = quartiles(odd)
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0, 10}, {1, 100}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The robust total discounts outlier batches: three disturbed batches out
// of sixteen leave it where sixteen clean ones put it.
func TestRobustTotalsIgnoreOutlierBatches(t *testing.T) {
	var clean, disturbed []batch
	for i := 0; i < 16; i++ {
		b := batch{wallNs: 100 + float64(i%3), cpuNs: 150 + float64(i%3)}
		clean = append(clean, b)
		if i%5 == 0 {
			b.wallNs, b.cpuNs = b.wallNs*4, b.cpuNs*4
		}
		disturbed = append(disturbed, b)
	}
	cw, cc := robustTotals(clean)
	dw, dc := robustTotals(disturbed)
	if math.Abs(dw-cw)/cw > 0.02 || math.Abs(dc-cc)/cc > 0.02 {
		t.Errorf("disturbed totals %v, %v drift from clean %v, %v", dw, dc, cw, cc)
	}
	if want := 16 * 101.0; cw != want {
		t.Errorf("clean wall total = %v, want 16 x the median batch = %v", cw, want)
	}
}

func TestT90(t *testing.T) {
	lat := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	// Ten subscribers, nine reached: ceil(0.9*10) = 9, the slowest of them.
	if v, ok := t90(lat, 10); !ok || v != 9 {
		t.Errorf("t90 = %v, %v, want 9, true", v, ok)
	}
	// Eight reached is short of nine.
	if _, ok := t90(lat[:8], 10); ok {
		t.Error("t90 of 8/10 reported complete")
	}
	// Sixteen subscribers need fifteen.
	if _, ok := t90(make([]float64, 14), 16); ok {
		t.Error("t90 of 14/16 reported complete")
	}
	if _, ok := t90(make([]float64, 15), 16); !ok {
		t.Error("t90 of 15/16 reported incomplete")
	}
}
