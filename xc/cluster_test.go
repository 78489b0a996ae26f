package xc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// breachSpec is the acceptance scenario: one bin-packed node under a
// tight SLO with offered load far above its capacity, room to grow.
func breachSpec() (ClusterSpec, *TrafficSpec) {
	spec := ClusterSpec{
		Nodes:     1,
		MaxNodes:  3,
		NodeCores: 4,
		Replicas:  1,
		Policy:    BinPack,
		SLOMillis: 0.5,
		Autoscale: true,
	}
	return spec, Traffic().Rate(1_500_000).Duration(1).Seed(7)
}

// TestClusterReportDeterministicJSON is the acceptance check: the same
// ClusterSpec and seed must produce byte-identical ClusterReport JSON,
// across several seeds; different seeds must differ.
func TestClusterReportDeterministicJSON(t *testing.T) {
	spec, _ := breachSpec()
	docs := map[uint64][]byte{}
	for _, seed := range []uint64{0, 1, 7, 42} {
		var prev []byte
		for round := 0; round < 2; round++ {
			c, err := NewCluster(XContainer)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Serve(App("memcached"), spec, Traffic().Rate(1_500_000).Duration(0.5).Seed(seed))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && !bytes.Equal(prev, blob) {
				t.Fatalf("seed %d: two runs produced different JSON", seed)
			}
			prev = blob
		}
		docs[seed] = prev
	}
	if bytes.Equal(docs[7], docs[42]) {
		t.Error("seeds 7 and 42 produced identical reports — the seed is not wired through")
	}
}

// TestClusterSLOBreachTriggersScalingAndMigration is the second
// acceptance check: the breach scenario must record at least one
// autoscale event and at least one live migration.
func TestClusterSLOBreachTriggersScalingAndMigration(t *testing.T) {
	c, err := NewCluster(XContainer)
	if err != nil {
		t.Fatal(err)
	}
	spec, traffic := breachSpec()
	rep, err := c.Serve(App("memcached"), spec, traffic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOBreaches == 0 {
		t.Error("no SLO breaches recorded under 1.5M req/s on one node")
	}
	scaled := false
	for _, e := range rep.ScaleEvents {
		if e.Action == "add-replica" || e.Action == "add-node" {
			scaled = true
		}
	}
	if !scaled {
		t.Errorf("no autoscale event recorded: %+v", rep.ScaleEvents)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no live migration recorded")
	}
	if rep.Migrations[0].DowntimeUS <= 0 {
		t.Error("migration charged no downtime")
	}
	if rep.PeakNodes <= 1 {
		t.Errorf("peak nodes = %d, want fleet growth", rep.PeakNodes)
	}
	// Identity and sections present.
	if rep.App != "memcached" || rep.Kind != "xcontainer" || rep.Runtime == "" {
		t.Errorf("report identity = %q/%q/%q", rep.App, rep.Kind, rep.Runtime)
	}
	if len(rep.Nodes) < 2 || rep.Latency.P99US <= 0 || rep.Throughput.RequestsPerSec <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
}

// TestClusterReportJSONSchema spot-checks the stable key set.
func TestClusterReportJSONSchema(t *testing.T) {
	c := MustNewCluster(Docker, WithMeltdownPatched(false))
	rep, err := c.Serve(App("Redis"), ClusterSpec{Nodes: 2, Policy: Spread},
		Traffic().Rate(50_000).Duration(0.2).Seed(3).Containers(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"app", "runtime", "kind", "cloud", "policy", "seed", "virtual_seconds",
		"throughput", "latency", "queue", "arrived", "completed",
		"nodes", "peak_nodes", "peak_containers", "slo_breaches",
		"autoscale", "scale_events", "migrations",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON missing key %q:\n%s", key, blob)
		}
	}
	var back ClusterReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Completed != rep.Completed || len(back.Nodes) != len(rep.Nodes) {
		t.Error("round-tripped report lost data")
	}
}

// TestClusterServeValidation mirrors Platform.Serve's contract.
func TestClusterServeValidation(t *testing.T) {
	c := MustNewCluster(XContainer)
	if _, err := c.Serve(nil, ClusterSpec{}, nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := c.Serve(SyscallLoop("getpid", 10), ClusterSpec{}, nil); err == nil {
		t.Error("non-application workload accepted")
	}
	if _, err := c.Serve(App("no-such-app"), ClusterSpec{}, nil); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := c.Serve(App("memcached"), ClusterSpec{}, Traffic().Rate(-5)); err == nil {
		t.Error("negative rate accepted")
	}
	for _, tr := range []*TrafficSpec{Traffic().Rate(math.Inf(1)).Duration(1e-6), Traffic().Rate(math.NaN()).Duration(1e-6)} {
		if _, err := c.Serve(App("memcached"), ClusterSpec{}, tr); err == nil {
			t.Error("non-finite rate accepted")
		}
	}
	if _, err := c.Serve(App("memcached"), ClusterSpec{NodeCores: 1}, Traffic().Cores(4)); err == nil {
		t.Error("replica wider than a node accepted")
	}
	for i, in := range badIngress() {
		if _, err := c.Serve(App("memcached"), ClusterSpec{Ingress: in}, Traffic().Rate(1000).Duration(0.001)); err == nil {
			t.Errorf("ingress spec %d: invalid route policy accepted", i)
		}
	}
	for _, spec := range badClusterSpecs() {
		if _, err := c.Serve(App("memcached"), spec, Traffic().Connections(4).Duration(0.001)); err == nil {
			t.Errorf("malformed cluster spec accepted: %+v", spec)
		}
	}
}

// badClusterSpecs are fleet specs with a non-finite or negative number
// or an unknown placement policy.
func badClusterSpecs() []ClusterSpec {
	nan, inf := math.NaN(), math.Inf(1)
	return []ClusterSpec{
		{Shards: 1, EpochMicros: nan},
		{Shards: 1, EpochMicros: inf},
		{Shards: 1, EpochMicros: -1},
		{SLOMillis: nan},
		{SLOMillis: -1},
		{FailNode: nan},
		{FailNode: inf},
		{FailNode: -1},
		{Policy: 9},
	}
}

// TestClusterFailureInjection drives the façade's FailNode knob.
func TestClusterFailureInjection(t *testing.T) {
	c := MustNewCluster(XContainer)
	spec := ClusterSpec{Nodes: 3, Policy: Spread, FailNode: 0.1}
	rep, err := c.Serve(App("Nginx"), spec, Traffic().Rate(100_000).Duration(0.4).Seed(9).Containers(3))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, n := range rep.Nodes {
		if n.Failed {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed nodes = %d, want 1", failed)
	}
	hasFailover := false
	for _, m := range rep.Migrations {
		if m.Reason == "failover" {
			hasFailover = true
		}
	}
	if !hasFailover {
		t.Errorf("no failover migration: %+v", rep.Migrations)
	}
}

// TestNewClusterRejectsMachineBounds: node sizing belongs to
// ClusterSpec; silently ignoring WithMachineMB would mislead.
func TestNewClusterRejectsMachineBounds(t *testing.T) {
	if _, err := NewCluster(XContainer, WithMachineMB(4096)); err == nil {
		t.Error("WithMachineMB accepted by NewCluster")
	}
	if _, err := NewCluster(XContainer, WithMachineFrames(1<<20)); err == nil {
		t.Error("WithMachineFrames accepted by NewCluster")
	}
	if _, err := NewCluster(ClearContainer, WithCloud(AmazonEC2)); err == nil {
		t.Error("clear-container on EC2 accepted (no nested virt)")
	}
}

func TestParsePolicyFacade(t *testing.T) {
	p, err := ParsePolicy(" Spread ")
	if err != nil || p != Spread {
		t.Errorf("ParsePolicy(Spread) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("quantum"); err == nil {
		t.Error("unknown policy accepted")
	}
	if !strings.Contains(PolicyUsage(), "binpack") {
		t.Errorf("PolicyUsage() = %q", PolicyUsage())
	}
}

// TestClusterString covers the human rendering xctl prints.
func TestClusterString(t *testing.T) {
	c := MustNewCluster(XContainer)
	spec, traffic := breachSpec()
	rep, err := c.Serve(App("memcached"), spec, traffic)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"cluster:", "served:", "latency:", "SLO:", "migrations:", "scale events:", "node 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
