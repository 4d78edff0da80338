package main

import (
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestPerturbedOutputCountsAsFailed runs the default seed's first
// sweep-cold job, checks it against its pin, then checks a copy with one
// metric nudged: the copy must count as a failed op, and a failed op must
// read as missing every latency.
func TestPerturbedOutputCountsAsFailed(t *testing.T) {
	pins, err := pinsFor(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	path, err := writeSpec(t.TempDir(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweep.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	job, err := spec.JobAt(0)
	if err != nil {
		t.Fatal(err)
	}
	m := sweep.RunJob(job)
	v := newVerifier(pins)
	if !v.check("sweep-cold/job/0", metricsDigest(m)) {
		t.Fatal("job 0 does not reproduce its pinned digest")
	}
	// The traced mirror of RunJob must agree too.
	if !v.check("sweep-cold/job/0", metricsDigest(newTracer().runJob(job))) {
		t.Fatal("the traced run's job 0 differs from sweep.RunJob's")
	}

	m.Scalars["diversifi_mos"] += 1e-9
	if v.check("sweep-cold/job/0", metricsDigest(m)) || v.failed != 1 {
		t.Fatalf("perturbed job 0 passed the check (failed = %d)", v.failed)
	}

	meas := &measurement{windows: []window{{
		ops: []op{{host: time.Millisecond, ok: true, ref: refPinNS}, {host: time.Millisecond, ok: false, ref: refPinNS}},
	}}}
	meas.scaleOps()
	lat, failed := meas.latencies()
	if failed != 1 || lat[0] != 1 || lat[1] != failedMS {
		t.Fatalf("latencies = %v, failed = %d; want [1 %v], 1", lat, failed, failedMS)
	}
}

// TestFirstExecutionIsTheExpectation covers seeds without pins: each key
// must reproduce whatever its first execution produced.
func TestFirstExecutionIsTheExpectation(t *testing.T) {
	v := newVerifier(nil)
	if !v.check("k", "a") || !v.check("k", "a") {
		t.Fatal("a repeated output failed")
	}
	if v.check("k", "b") || v.failed != 1 {
		t.Fatalf("a changed output passed (failed = %d)", v.failed)
	}
}
