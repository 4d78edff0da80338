package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := Named(42, "link/A")
	b := Named(42, "link/A")
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %x != %x", i, got, want)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Named(42, "link/A")
	b := Named(42, "link/B")
	c := Named(43, "link/A")
	same := 0
	for i := 0; i < 1000; i++ {
		va, vb, vc := a.Uint64(), b.Uint64(), c.Uint64()
		if va == vb || va == vc {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between supposedly independent streams", same)
	}
	if Named(42, "x").gamma%2 != 1 {
		t.Fatal("gamma must be odd")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestUniformMoments sanity-checks Float64's first two moments.
func TestUniformMoments(t *testing.T) {
	s := New(1234)
	const n = 1_000_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := s.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	s := New(99)
	const n = 500_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 = %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("mean = %v, want ~1", mean)
	}
	if variance := sumSq/n - mean*mean; math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(5)
	const n = 500_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if variance := sumSq/n - mean*mean; math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

// TestEquidistribution runs a coarse chi-squared uniformity check over 64
// buckets — a smoke test against gross mixing bugs, not a PRNG test suite.
func TestEquidistribution(t *testing.T) {
	s := Named(42, "chi")
	const buckets = 64
	const n = 640_000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[s.Uint64()%buckets]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: mean 63, std ~11.2. Accept within ~5 sigma.
	if chi2 > 120 {
		t.Errorf("chi^2 = %.1f, suspiciously non-uniform", chi2)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}
