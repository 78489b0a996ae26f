package cluster

import (
	"reflect"
	"strings"
	"testing"

	"xcontainers/internal/apps"
	"xcontainers/internal/core"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

func testConfig(t *testing.T, kind runtimes.Kind) Config {
	t.Helper()
	app, err := apps.ByName("memcached")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform: core.PlatformConfig{
			Kind: kind, MeltdownPatched: true,
			Cloud: runtimes.LocalCluster, FastToolstack: true,
		},
		App:       app,
		Nodes:     2,
		MaxNodes:  4,
		NodeCores: 4,
		Replicas:  2,
		Policy:    Spread,
	}
}

func mustRun(t *testing.T, cfg Config, tr Traffic) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminism is the cluster's core contract: same Config and seed,
// identical Result — across a scenario that exercises autoscaling,
// migration, and failure injection all at once.
func TestDeterminism(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.3
	tr := Traffic{Rate: 900_000, DurationSec: 0.8, Seed: 42}

	a := mustRun(t, cfg, tr)
	b := mustRun(t, cfg, tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config+seed produced different results:\n%+v\nvs\n%+v", a, b)
	}

	tr.Seed = 43
	c := mustRun(t, cfg, tr)
	if a.Arrived == c.Arrived && a.P99US == c.P99US {
		t.Error("different seeds produced identical arrival count and p99 — seed is not wired through")
	}
}

// TestSLOBreachScalesAndMigrates pins the acceptance scenario: offered
// load far above one node's capacity under a tight SLO must provoke at
// least one autoscale action and at least one live migration.
func TestSLOBreachScalesAndMigrates(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 3
	cfg.Autoscale, cfg.SLOp99US = true, 500
	res := mustRun(t, cfg, Traffic{Rate: 1_500_000, DurationSec: 1, Seed: 7})

	if res.SLOBreaches == 0 {
		t.Error("overload scenario recorded no SLO breaches")
	}
	scaled := false
	for _, e := range res.ScaleEvents {
		if e.Action == "add-replica" || e.Action == "add-node" {
			scaled = true
		}
	}
	if !scaled {
		t.Errorf("no autoscale event in %+v", res.ScaleEvents)
	}
	if len(res.Migrations) == 0 {
		t.Fatal("overload scenario produced no live migrations")
	}
	for _, m := range res.Migrations {
		if m.Reason != "rebalance" {
			t.Errorf("migration reason = %q, want rebalance", m.Reason)
		}
		if m.DowntimeUS <= 0 {
			t.Errorf("migration of %s charged no downtime", m.Container)
		}
	}
	if res.PeakNodes <= 1 {
		t.Errorf("peak nodes = %d, want growth beyond the initial node", res.PeakNodes)
	}
}

// TestFailoverReschedules kills a node mid-run: its containers must be
// rescheduled onto survivors and service must continue.
func TestFailoverReschedules(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.FailNodeAtSec = 0.2
	res := mustRun(t, cfg, Traffic{Rate: 400_000, DurationSec: 0.6, Seed: 5})

	failed := 0
	for _, n := range res.Nodes {
		if n.Failed {
			failed++
			if n.Containers != 0 {
				t.Errorf("failed node %d still hosts %d containers", n.ID, n.Containers)
			}
			if n.RemovedSec == 0 {
				t.Errorf("failed node %d has no removal time", n.ID)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed nodes = %d, want exactly 1", failed)
	}
	foundFailover := false
	for _, m := range res.Migrations {
		if m.Reason == "failover" {
			foundFailover = true
		}
	}
	if !foundFailover {
		t.Errorf("no failover migration recorded: %+v", res.Migrations)
	}
	if res.Throughput < 300_000 {
		t.Errorf("throughput %.0f collapsed after failover; survivors should absorb the load", res.Throughput)
	}
}

// TestFailoverDropsDeadBacklog: waiting requests die with the failed
// node and are accounted as Dropped, not silently lost.
func TestFailoverDropsDeadBacklog(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 2, 2, 2
	cfg.FailNodeAtSec = 0.2
	// 2 single-core containers serve ~640k req/s; 1.2M builds a deep
	// backlog on both queues by the failure instant.
	res := mustRun(t, cfg, Traffic{Rate: 1_200_000, DurationSec: 0.4, Seed: 13})
	if res.Dropped == 0 {
		t.Error("failover of a backlogged node dropped nothing")
	}
	if res.Arrived < res.Completed+res.Dropped {
		t.Errorf("accounting broken: arrived %d < completed %d + dropped %d",
			res.Arrived, res.Completed, res.Dropped)
	}
}

// TestStrandedReleasesReservationAndDrops: with no capacity to
// reschedule, a failed node's containers drop their backlog, release
// their reservation, and the report stays consistent.
func TestStrandedReleasesReservationAndDrops(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 2, 2, 2
	cfg.NodeCores = 1 // both nodes full: nowhere to reschedule
	cfg.FailNodeAtSec = 0.1
	res := mustRun(t, cfg, Traffic{Rate: 1_200_000, DurationSec: 0.3, Seed: 21})
	if res.Dropped == 0 {
		t.Error("stranded container dropped nothing despite a deep backlog")
	}
	stranded := false
	for _, e := range res.ScaleEvents {
		if e.Action == "stranded" {
			stranded = true
		}
	}
	if !stranded {
		t.Fatalf("no stranded event: %+v", res.ScaleEvents)
	}
	for _, n := range res.Nodes {
		if n.Failed && (n.CoresUsed != 0 || n.Containers != 0) {
			t.Errorf("failed node %d still reserves %d cores / %d containers",
				n.ID, n.CoresUsed, n.Containers)
		}
		if n.Containers < 0 || n.CoresUsed < 0 {
			t.Errorf("node %d has negative accounting: %+v", n.ID, n)
		}
	}
}

// TestInitialPlacementGrowsToMaxNodes: initial replicas beyond the
// initial nodes' capacity boot extra nodes up front when the autoscale
// ceiling allows it, instead of erroring.
func TestInitialPlacementGrowsToMaxNodes(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.NodeCores, cfg.Replicas = 1, 4, 4, 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.nodes) != 2 {
		t.Errorf("nodes booted = %d, want 2 for 8 single-core replicas on 4-core nodes", len(c.nodes))
	}
	if len(c.containers) != 8 {
		t.Errorf("containers placed = %d, want 8", len(c.containers))
	}
}

// TestClosedLoopPopulationSurvivesFailure: closed-loop connections
// reconnect after a node failure — nothing is dropped, and the
// circulating population keeps driving the survivors.
func TestClosedLoopPopulationSurvivesFailure(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.FailNodeAtSec = 0.1
	res := mustRun(t, cfg, Traffic{Concurrency: 16, DurationSec: 0.4, Seed: 2})
	if res.Dropped != 0 {
		t.Errorf("closed loop dropped %d: connections should reconnect, not vanish", res.Dropped)
	}
	if res.Population != 16 {
		t.Errorf("population = %d, want 16", res.Population)
	}
	// All 16 connections must still be circulating at the end: jobs in
	// system plus completions account for every member many times over.
	if res.Completed == 0 || res.Utilization <= 0 {
		t.Errorf("fleet idle after failover: %+v", res)
	}
}

// TestPlacementPolicies checks the initial placement each policy makes.
func TestPlacementPolicies(t *testing.T) {
	count := func(c *Cluster) map[int]int {
		m := map[int]int{}
		for _, ct := range c.containers {
			m[ct.node.id]++
		}
		return m
	}

	cfg := testConfig(t, runtimes.Docker)
	cfg.Nodes, cfg.Replicas = 2, 2

	cfg.Policy = BinPack
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(c); got[1] != 2 {
		t.Errorf("binpack placed %v, want both replicas on node 1", got)
	}

	cfg.Policy = Spread
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(c); got[1] != 1 || got[2] != 1 {
		t.Errorf("spread placed %v, want one replica per node", got)
	}

	cfg.Policy = LatencyAware
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(c); got[1] != 1 || got[2] != 1 {
		t.Errorf("latency-aware placed %v, want one replica per node (equal backlogs spread)", got)
	}
}

// TestColdMigrationForNonCheckpointKinds: architectures without the
// checkpoint path still rebalance, via cold restart with a positive
// fork/exec downtime.
func TestColdMigrationForNonCheckpointKinds(t *testing.T) {
	cfg := testConfig(t, runtimes.Docker)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 3
	cfg.Autoscale, cfg.SLOp99US = true, 500
	res := mustRun(t, cfg, Traffic{Rate: 2_500_000, DurationSec: 1, Seed: 11})

	if len(res.Migrations) == 0 {
		t.Fatal("Docker cluster produced no rebalancing migrations")
	}
	for _, m := range res.Migrations {
		if m.DowntimeUS <= 0 {
			t.Errorf("cold migration of %s charged no downtime", m.Container)
		}
	}
}

// TestClosedLoop: with no open-loop source the cluster serves a fixed
// connection population.
func TestClosedLoop(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	res := mustRun(t, cfg, Traffic{DurationSec: 0.2, Seed: 1})
	if res.Population == 0 {
		t.Error("closed loop resolved no population")
	}
	if res.OfferedRate != 0 {
		t.Errorf("closed loop reports offered rate %v", res.OfferedRate)
	}
	if res.Completed == 0 {
		t.Error("closed loop completed nothing")
	}
	if res.Utilization <= 0 {
		t.Error("closed loop shows zero utilization")
	}
}

// TestScaleDown: a heavily over-provisioned fleet drains replicas.
func TestScaleDown(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 3, 3, 6
	cfg.Autoscale = true
	res := mustRun(t, cfg, Traffic{Rate: 10_000, DurationSec: 1, Seed: 3})

	drained := false
	for _, e := range res.ScaleEvents {
		if e.Action == "remove-replica" {
			drained = true
		}
	}
	if !drained {
		t.Errorf("idle fleet never drained a replica: %+v", res.ScaleEvents)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "application") {
		t.Errorf("nil app accepted: %v", err)
	}
	cfg := testConfig(t, runtimes.XContainer)
	cfg.ReplicaCores, cfg.NodeCores = 8, 4
	if _, err := New(cfg); err == nil {
		t.Error("replica larger than node accepted")
	}
	cfg = testConfig(t, runtimes.XContainer)
	cfg.Replicas = 100 // 2 nodes × 4 cores cannot host 100 single-core replicas
	if _, err := New(cfg); err == nil {
		t.Error("impossible initial placement accepted")
	}

	c, err := New(testConfig(t, runtimes.XContainer))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range []Traffic{
		{Rate: -1},
		// Bursts that could never arrive are errors, as in the xc
		// façade, not silent runs with no arrivals.
		{Burst: &workload.BurstSpec{PeakRate: 0, OnSeconds: 0.01, OffSeconds: 0.01}},
		{Burst: &workload.BurstSpec{PeakRate: 1000, OnSeconds: 0, OffSeconds: 0.01}},
		{Burst: &workload.BurstSpec{PeakRate: 1000, OnSeconds: 0.01, OffSeconds: -0.1}},
	} {
		if _, err := c.Run(tr); err == nil {
			t.Errorf("invalid traffic %d accepted", i)
		}
	}
	if _, err := c.Run(Traffic{DurationSec: 0.01}); err != nil {
		t.Errorf("valid run rejected: %v", err)
	}
	if _, err := c.Run(Traffic{DurationSec: 0.01}); err == nil {
		t.Error("second Run on a spent cluster accepted")
	}
}

// TestStaleResumeDoesNotThawLaterBlackout: when a second blackout (a
// failover) interrupts a migration's blackout window, the first
// migration's scheduled Resume must not prematurely unfreeze the queue
// — only the latest freeze may thaw it.
func TestStaleResumeDoesNotThawLaterBlackout(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 2, 1, BinPack
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.containers[0]

	c.migrate(ct, c.nodes[1], "rebalance")
	first := cycles.FromMicros(c.res.Migrations[0].DowntimeUS)
	if first <= 10 {
		t.Fatalf("blackout %v too short to split", first)
	}
	// Interrupt just before the first blackout ends, so its (now stale)
	// Resume fires while the second blackout is still in force.
	c.eng.At(first-10, func() { c.migrate(ct, c.nodes[0], "failover") })

	c.eng.Run(first + 1) // past the stale Resume
	if len(c.res.Migrations) != 2 {
		t.Fatalf("migrations recorded = %d, want 2", len(c.res.Migrations))
	}
	if !ct.q.Suspended() {
		t.Fatal("stale Resume from the superseded migration thawed the queue")
	}
	c.eng.RunUntilIdle() // fires the second blackout's Resume
	if ct.q.Suspended() {
		t.Fatal("queue never resumed after the second blackout elapsed")
	}
}

// TestShortRunStillEvaluatesSLO: a run shorter than the control
// interval (and any final partial window) must still get a control
// tick — an overloaded 0.04 s run cannot report zero breaches.
func TestShortRunStillEvaluatesSLO(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 3
	cfg.Autoscale, cfg.SLOp99US = true, 500
	res := mustRun(t, cfg, Traffic{Rate: 1_500_000, DurationSec: 0.04, Seed: 7})
	if res.SLOBreaches == 0 {
		t.Error("overloaded sub-interval run reported no SLO breaches")
	}
	scaled := false
	for _, e := range res.ScaleEvents {
		if e.Action == "add-replica" || e.Action == "add-node" {
			scaled = true
		}
	}
	if !scaled {
		t.Errorf("autoscaler never acted on a sub-interval run: %+v", res.ScaleEvents)
	}

	// A non-multiple horizon evaluates its last partial window too:
	// 0.08 s = one full 0.05 s window + a 0.03 s remainder, both ticks.
	res = mustRun(t, cfg, Traffic{Rate: 1_500_000, DurationSec: 0.08, Seed: 7})
	if res.SLOBreaches < 2 {
		t.Errorf("breaches = %d, want both windows of a 0.08s overload counted", res.SLOBreaches)
	}
}

// TestRetireIdempotent: a container stranded by a node failure while
// draining must not give back its node reservation twice when its last
// in-service job completes.
func TestRetireIdempotent(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 1, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.containers[0]
	n := ct.node
	live, cores := n.live, n.usedCores
	ct.draining = true
	ct.gone = true // the stranded path marks gone without retiring
	n.live--       // ...and accounts the container itself
	c.retire(ct)   // onDone's drain-completion path fires afterwards
	if n.live != live-1 || n.usedCores != cores {
		t.Errorf("retire on a gone container changed counters: live %d->%d, cores %d->%d",
			live, n.live, cores, n.usedCores)
	}
}

// TestStrandedContainerStaysFrozen: stranding cancels any in-flight
// migration's pending Resume for good.
func TestStrandedContainerStaysFrozen(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas, cfg.Policy = 2, 2, 1, BinPack
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.containers[0]
	c.migrate(ct, c.nodes[1], "rebalance")
	// Simulate the stranded path mid-blackout.
	ct.gone = true
	ct.q.Suspend()
	ct.freezeGen++
	c.eng.RunUntilIdle()
	if !ct.q.Suspended() {
		t.Fatal("stranded container's queue was thawed by a stale Resume")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"binpack": BinPack, "spread": Spread, "latency": LatencyAware,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("Policy(%v).String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParsePolicy("chaos"); err == nil {
		t.Error("unknown policy accepted")
	}
}
