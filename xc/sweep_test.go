package xc

import (
	"runtime"
	"strings"
	"testing"
)

// setGOMAXPROCS sets GOMAXPROCS, which sizes every worker pool, for the
// rest of the test and restores the old value when it ends.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSweepDeterministicAcrossWorkerCounts is the sweep's core
// contract: the merged JSON is byte-identical whether replications run
// serially (GOMAXPROCS 1) or on a pool of eight, because results merge
// by point order, not completion order.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := SweepSpec{
		Kind:     XContainer,
		Workload: App("memcached"),
		Traffic:  Traffic().Duration(0.05),
		Rates:    []float64{100_000, 300_000, 0},
		Seeds:    []uint64{1, 2, 3},
	}
	setGOMAXPROCS(t, 1)
	serial, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 8)
	parallel, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("sweep output depends on worker count.\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// TestSweepPointShape checks grid layout, labels, and that cross-seed
// statistics are coherent (min ≤ mean ≤ max, distinct seeds spread).
func TestSweepPointShape(t *testing.T) {
	rep, err := Sweep(SweepSpec{
		Kind:     Docker,
		Workload: App("nginx"),
		Traffic:  Traffic().Duration(0.05),
		Rates:    []float64{50_000, 200_000},
		Seeds:    []uint64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "platform" || len(rep.Points) != 2 {
		t.Fatalf("mode %q with %d points, want platform/2", rep.Mode, len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Runs != 4 {
			t.Errorf("%s: runs = %d, want 4", p.Label, p.Runs)
		}
		if !(p.P99US.Min <= p.P99US.Mean && p.P99US.Mean <= p.P99US.Max) {
			t.Errorf("%s: incoherent p99 stat %+v", p.Label, p.P99US)
		}
		if p.Throughput.Mean <= 0 {
			t.Errorf("%s: no throughput", p.Label)
		}
	}
	// Poisson arrivals under distinct seeds should not be identical.
	if p := rep.Points[1]; p.P99US.Std == 0 && p.Throughput.Std == 0 {
		t.Errorf("cross-seed stddev all zero: seeds not actually varied")
	}
	if rep.Points[0].Label != "rate 50000/s" {
		t.Errorf("label = %q", rep.Points[0].Label)
	}
}

// TestSweepClusterPolicies sweeps placement policies over a fleet and
// expects one point per (policy, rate) cell, policy-major.
func TestSweepClusterPolicies(t *testing.T) {
	rep, err := Sweep(SweepSpec{
		Kind:     XContainer,
		Workload: App("nginx"),
		Traffic:  Traffic().Duration(0.1),
		Rates:    []float64{400_000},
		Seeds:    []uint64{1, 2},
		Cluster:  &ClusterSpec{Nodes: 2, Replicas: 2},
		Policies: []PlacementPolicy{BinPack, Spread, LatencyAware},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "cluster" || len(rep.Points) != 3 {
		t.Fatalf("mode %q with %d points, want cluster/3", rep.Mode, len(rep.Points))
	}
	wantPolicies := []string{"binpack", "spread", "latency"}
	for i, p := range rep.Points {
		if p.Policy != wantPolicies[i] {
			t.Errorf("point %d policy = %q, want %q (policy-major order)", i, p.Policy, wantPolicies[i])
		}
		if !strings.HasPrefix(p.Label, wantPolicies[i]+", ") {
			t.Errorf("point %d label = %q", i, p.Label)
		}
	}
}

// TestSweepValidation rejects the nonsense configurations.
func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(SweepSpec{Kind: XContainer}); err == nil {
		t.Error("sweep without a workload must fail")
	}
	if _, err := Sweep(SweepSpec{
		Kind: XContainer, Workload: App("nginx"),
		Policies: []PlacementPolicy{Spread},
	}); err == nil {
		t.Error("policy sweep without a cluster spec must fail")
	}
	if _, err := Sweep(SweepSpec{
		Kind: XContainer, Workload: App("no-such-app"),
		Seeds: []uint64{1},
	}); err == nil {
		t.Error("unknown app must surface the workload error")
	}
	if _, err := Sweep(SweepSpec{
		Kind: XContainer, Workload: App("nginx"),
		Traffic: Traffic().Rate(-5),
	}); err == nil {
		t.Error("invalid base traffic must fail before any run")
	}
}

// TestSweepSeedSweepMatchesSingleRuns cross-checks the sweep against
// individual Serve calls: each replication must reproduce exactly what
// a standalone platform run reports.
func TestSweepSeedSweepMatchesSingleRuns(t *testing.T) {
	traffic := Traffic().Rate(150_000).Duration(0.05)
	rep, err := Sweep(SweepSpec{
		Kind:     XContainer,
		Workload: App("memcached"),
		Traffic:  traffic,
		Seeds:    []uint64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := MustNewPlatform(XContainer)
	single, err := p.Serve(App("memcached"), Traffic().Rate(150_000).Duration(0.05).Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Points[0]
	if got.Throughput.Mean != single.Throughput.RequestsPerSec {
		t.Errorf("sweep throughput %v != single-run %v", got.Throughput.Mean, single.Throughput.RequestsPerSec)
	}
	if got.P99US.Mean != single.Latency.P99US || got.P99US.Std != 0 {
		t.Errorf("one-seed point p99 %+v, want exactly the single-run %v", got.P99US, single.Latency.P99US)
	}
}
