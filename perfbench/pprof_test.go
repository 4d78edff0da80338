package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestParseTracesFixture(t *testing.T) {
	out, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		value  time.Duration
		frames int
		charge string
	}{
		{20 * time.Millisecond, 8, "cpu.sim"},     // runtime.memmove under sim heapPush
		{50 * time.Millisecond, 4, "cpu.phy"},     // math.Log10 inlined into phy
		{10 * time.Millisecond, 3, "cpu.sim"},     // sim/rng counts toward sim
		{30 * time.Millisecond, 4, "cpu.runtime"}, // GC worker: no repro frame
		{1200 * time.Millisecond, 3, "cpu.obs"},   // obs/slo counts toward obs
		{10 * time.Millisecond, 3, "cpu.other"},   // pkt has no share of its own
		{10 * time.Millisecond, 2, "cpu.bench"},   // the benchmark's own frames
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples; want %d", len(samples), len(want))
	}
	for i, w := range want {
		s := samples[i]
		if s.value != w.value || len(s.frames) != w.frames || chargeTo(s.frames) != w.charge {
			t.Errorf("sample %d = %v, %d frames, %s; want %v, %d, %s",
				i, s.value, len(s.frames), chargeTo(s.frames), w.value, w.frames, w.charge)
		}
	}
	shares := moduleShares(samples)
	sum := 0.0
	for _, x := range shares {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v; want 1", sum)
	}
	if got, want := shares["cpu.sim"], 30.0/1330; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu.sim = %v; want %v", got, want)
	}
	if shares["cpu.voip"] != 0 {
		t.Errorf("cpu.voip = %v; want 0 (present, nothing charged)", shares["cpu.voip"])
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	if _, err := parseTraces([]byte("not a profile\n")); err == nil {
		t.Fatal("output without stacks was accepted")
	}
	bad := []byte("-----------+----\n   soon   runtime.main\n")
	if _, err := parseTraces(bad); err == nil {
		t.Fatal("a block without a sampled time was accepted")
	}
}
