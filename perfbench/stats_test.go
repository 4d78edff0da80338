package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 199 samples: rank ceil(0.95·199) = 190 leaves 9 beyond p95.
	if _, err := percentile(seq(199), 0.95); err == nil || !strings.Contains(err.Error(), "only 9") {
		t.Fatalf("p95 of 199 samples: err = %v; want a refusal naming 9 samples beyond", err)
	}
	// 200 samples: rank 190 leaves exactly 10 beyond.
	p95, err := percentile(seq(200), 0.95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", p95, err)
	}
	// The p99 of a few hundred samples is refused: it was decided by
	// about five of them.
	if _, err := percentile(seq(480), 0.99); err == nil {
		t.Fatal("p99 of 480 samples was reported; fewer than 10 lie beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples was reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v; want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v; want 2.5", m)
	}
}
