package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
)

// The observability layer's contract: tracing never perturbs the model,
// and its own outputs — the Perfetto trace and the windowed time
// series — are byte-identical for any Shards >= 1 × any ShardWorkers,
// the same bar the Result itself meets. These tests pin that across the
// hardest scenarios (node failure under autoscale, hedged ingress) and
// pin the flight recorder's drop accounting under ring overflow.

// observedArtifacts renders every observability output of one run to
// bytes: the Perfetto trace JSON, the time-series JSON, and its CSV.
func observedArtifacts(t *testing.T, cfg Config, tr Traffic) (trace, ts, csv []byte) {
	t.Helper()
	res := mustRunPooled(t, cfg, tr)
	if res.Trace == nil || res.TimeSeries == nil {
		t.Fatal("Observe was configured but Trace/TimeSeries are nil")
	}
	assertSeriesBalances(t, fmt.Sprintf("Shards=%d", cfg.Shards), res)
	var tb, cb bytes.Buffer
	if err := res.Trace.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := res.TimeSeries.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	j, err := json.MarshalIndent(res.TimeSeries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), j, cb.Bytes()
}

// assertObservedInvariant runs cfg at each shard count, fails on any
// byte difference in the trace, series or CSV, and returns the first
// run's three artifacts concatenated.
func assertObservedInvariant(t *testing.T, cfg Config, tr Traffic, shardCounts []int) []byte {
	t.Helper()
	var wantTrace, wantTS, wantCSV []byte
	for _, s := range shardCounts {
		c := cfg
		c.Shards = s
		trace, ts, csv := observedArtifacts(t, c, tr)
		if wantTrace == nil {
			wantTrace, wantTS, wantCSV = trace, ts, csv
			if len(bytes.Split(trace, []byte("\n"))) < 10 {
				t.Fatalf("trace suspiciously empty:\n%s", trace)
			}
			continue
		}
		if !bytes.Equal(wantTS, ts) {
			t.Fatalf("Shards=%d time series diverged from Shards=%d:\n%s",
				s, shardCounts[0], firstDiff(wantTS, ts))
		}
		if !bytes.Equal(wantCSV, csv) {
			t.Fatalf("Shards=%d CSV diverged from Shards=%d:\n%s",
				s, shardCounts[0], firstDiff(wantCSV, csv))
		}
		if !bytes.Equal(wantTrace, trace) {
			t.Fatalf("Shards=%d trace diverged from Shards=%d:\n%s",
				s, shardCounts[0], firstDiff(wantTrace, trace))
		}
	}
	return append(append(wantTrace, wantTS...), wantCSV...)
}

// TestObservedShardInvariance: traces and time series are byte-equal
// for any shard count, under the full control plane — autoscale on a
// tight SLO plus a node failure with failover migrations — with
// queue-depth tracks on.
func TestObservedShardInvariance(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.3
	cfg.Observe = &ObserveConfig{WindowUS: 50_000, QueueDepth: true}

	shards := layoutSweep([]int{1, 2, 8}, []int{8})
	t.Run("open", func(t *testing.T) {
		assertObservedInvariant(t, cfg, Traffic{Rate: 900_000, DurationSec: 0.8, Seed: 42}, shards)
	})
	t.Run("closed", func(t *testing.T) {
		assertObservedInvariant(t, cfg, Traffic{Concurrency: 24, DurationSec: 0.8, Seed: 42}, shards)
	})
}

// TestObservedIngressInvariance: the hedged, budgeted, keep-alive
// ingress tier across a node failure — attempt spans, retry/hedge
// instants, budget counters, wasted-work records — stays byte-equal for
// any shard count and any worker count, and matches the pinned bytes.
func TestObservedIngressInvariance(t *testing.T) {
	const pinned = "56b852698b1be002a948aef2d2ceece14522920d1daf6f3c513619eae35e9c51"
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 800
	cfg.FailNodeAtSec = 0.2
	cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{
		LB: ingress.PowerOfTwo, KeepAlive: true, KeepAliveReqs: 32,
		Timeout: cycles.FromSeconds(400e-6), Retries: 2,
		Backoff: cycles.FromSeconds(50e-6), RetryBudget: 0.2, HedgeP: 0.95,
	}}
	cfg.Observe = &ObserveConfig{WindowUS: 25_000, QueueDepth: true}
	tr := Traffic{Rate: 600_000, DurationSec: 0.5, Seed: 11}

	// Under the race detector the pinned 8-shard run on two pooled
	// workers stands for both sweeps.
	got := assertObservedInvariant(t, cfg, tr, layoutSweep([]int{1, 2, 8}, []int{8}))
	assertPinned(t, "observed ingress trace, series and CSV", got, pinned)

	// Worker counts are pure wall-clock knobs for the trace too.
	cfg.Shards = 8
	var want []byte
	for _, w := range layoutSweep([]int{1, 2, 8}, nil) {
		c := cfg
		c.ShardWorkers = w
		trace, _, _ := observedArtifacts(t, c, tr)
		if want == nil {
			want = trace
			continue
		}
		if !bytes.Equal(want, trace) {
			t.Fatalf("ShardWorkers=%d changed the trace:\n%s", w, firstDiff(want, trace))
		}
	}
}

// TestObservedSingleEngineDeterminism: Shards == 0 is a different model
// (instantaneous routing and control), so its trace is pinned
// self-deterministic rather than equal to the sharded ones, and its
// bytes are pinned.
func TestObservedSingleEngineDeterminism(t *testing.T) {
	const pinned = "8270166130f44884324f31a160ba9211a769429aee33bc26ac8a055db52545e1"
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.25
	cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{
		LB: ingress.JSQ, Timeout: cycles.FromSeconds(400e-6), Retries: 2,
		Backoff: cycles.FromSeconds(50e-6), RetryBudget: 0.2, HedgeP: 0.95,
	}}
	cfg.Observe = &ObserveConfig{WindowUS: 25_000, QueueDepth: true}
	tr := Traffic{Rate: 600_000, DurationSec: 0.5, Seed: 11}

	t1, s1, c1 := observedArtifacts(t, cfg, tr)
	t2, s2, c2 := observedArtifacts(t, cfg, tr)
	if !bytes.Equal(t1, t2) || !bytes.Equal(s1, s2) || !bytes.Equal(c1, c2) {
		t.Fatal("single-engine observed run is not self-deterministic")
	}
	assertPinned(t, "single-engine trace, series and CSV", append(append(t1, s1...), c1...), pinned)
}

// TestObserveNoModelPerturbation: an observed run and an unobserved run
// of the same experiment produce the same Result — observation never
// schedules events, touches a seed, or changes routing.
func TestObserveNoModelPerturbation(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.3
	tr := Traffic{Rate: 900_000, DurationSec: 0.8, Seed: 42}

	for _, shards := range layoutSweep([]int{0, 2}, []int{2}) {
		c := cfg
		c.Shards = shards
		plain := runJSON(t, c, tr)
		c.Observe = &ObserveConfig{WindowUS: 50_000, QueueDepth: true}
		res := mustRun(t, c, tr)
		res.TimeSeries, res.Trace = nil, nil
		observed, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, observed) {
			t.Fatalf("Shards=%d: observing changed the Result:\n%s", shards, firstDiff(plain, observed))
		}
	}
}

// TestObserveRingOverflow: a ring far smaller than the record volume
// overflows deterministically — dropped = emitted − capacity, retention
// holds exactly capacity records, and both the drop accounting and the
// surviving trace bytes are shard-layout invariant (batch membership is
// a model property, so overwrite-oldest evicts the same records).
func TestObserveRingOverflow(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Observe = &ObserveConfig{WindowUS: 50_000, RingCap: 512}
	tr := Traffic{Rate: 700_000, DurationSec: 0.4, Seed: 3}

	var want []byte
	var wantDropped uint64
	for _, shards := range []int{1, 2, 8} {
		c := cfg
		c.Shards = shards
		res := mustRun(t, c, tr)
		rec := res.Trace
		if rec.Len() != 512 {
			t.Fatalf("Shards=%d: ring holds %d records, want capacity 512", shards, rec.Len())
		}
		if rec.Dropped() != rec.Emitted()-512 {
			t.Fatalf("Shards=%d: dropped %d, want emitted-cap = %d", shards, rec.Dropped(), rec.Emitted()-512)
		}
		if rec.Dropped() == 0 {
			t.Fatalf("Shards=%d: expected overflow, emitted only %d", shards, rec.Emitted())
		}
		if res.TimeSeries.TraceDropped != rec.Dropped() {
			t.Fatalf("Shards=%d: series drop accounting %d != recorder %d",
				shards, res.TimeSeries.TraceDropped, rec.Dropped())
		}
		var tb bytes.Buffer
		if err := rec.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantDropped = tb.Bytes(), rec.Dropped()
			continue
		}
		if rec.Dropped() != wantDropped {
			t.Fatalf("Shards=%d: dropped %d, Shards=1 dropped %d", shards, rec.Dropped(), wantDropped)
		}
		if !bytes.Equal(want, tb.Bytes()) {
			t.Fatalf("Shards=%d: overflowed trace diverged:\n%s", shards, firstDiff(want, tb.Bytes()))
		}
	}
}
