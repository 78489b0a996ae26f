package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

// The sharded engine's contract: for a fixed Config (including EpochUS)
// and seed, the Result is byte-identical for ANY Shards >= 1 and any
// ShardWorkers — sharding and parallelism are wall-clock knobs, never
// model knobs. These tests pin that across the scenarios where it is
// hardest to keep: autoscaling, node failure, migration, and the
// ingress tier's retry/hedge machinery.

func runJSON(t *testing.T, cfg Config, tr Traffic) []byte {
	t.Helper()
	res := mustRunPooled(t, cfg, tr)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustRunPooled is mustRun with every epoch of a sharded run handed to
// the worker pool, however few events it carries, so that the pool's
// wake, claim and ack stay under test (runTo otherwise runs the small
// epochs of test-sized fleets inline). It fails if a run with more than
// one worker never used the pool.
func mustRunPooled(t *testing.T, cfg Config, tr Traffic) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.sh != nil {
		c.sh.poolMin = 0
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	assertPooled(t, c)
	return res
}

// assertPooled fails if c ran a sharded pool wider than one worker but
// handed it no epoch.
func assertPooled(t *testing.T, c *Cluster) {
	t.Helper()
	if c.sh != nil && c.sh.pool.Workers() > 1 && c.sh.pooled == 0 {
		t.Fatalf("%d shards, %d workers: %d epochs, none of them pooled",
			len(c.sh.engines), c.sh.pool.Workers(), c.sh.inline)
	}
}

// assertShardInvariant runs cfg at each shard count, fails on any
// byte difference, and returns the first run's report.
func assertShardInvariant(t *testing.T, cfg Config, tr Traffic, shardCounts []int) []byte {
	t.Helper()
	var want []byte
	for _, s := range shardCounts {
		c := cfg
		c.Shards = s
		got := runJSON(t, c, tr)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("Shards=%d diverged from Shards=%d:\n%s\nvs\n%s",
				s, shardCounts[0], firstDiff(want, got), got[:min(len(got), 400)])
		}
	}
	return want
}

// layoutSweep returns the shard or worker counts a layout sweep runs:
// all, or, under the race detector, the subset race. Race
// instrumentation slows a run about tenfold, and the race job looks
// for races, which live only where the run starts goroutines: race
// subsets drop the single engine and one-worker layouts, and the
// determinism sweeps keep (or, with a pin, stand for) 8 shards on two
// workers forced to pool every epoch (mustRunPooled). The non-race
// suite keeps every layout and every comparison.
func layoutSweep(all, race []int) []int {
	if raceEnabled {
		return race
	}
	return all
}

// assertPinned fails unless got hashes to the pinned SHA-256 digest.
// Shard and worker invariance are self-consistency checks: a drift that
// moves every layout alike passes them, so the scenarios that carry the
// ingress lifecycle also pin their absolute bytes.
func assertPinned(t *testing.T, what string, got []byte, pinned string) {
	t.Helper()
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != pinned {
		t.Errorf("%s digest %s, want %s", what, sum, pinned)
	}
}

// firstDiff renders the first differing region, for readable failures.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-120)
			return "...  " + string(a[lo:min(len(a), i+120)]) + "\n!=\n...  " + string(b[lo:min(len(b), i+120)])
		}
	}
	return "length mismatch"
}

// TestShardedDeterminismPlain: the plain front door under the full
// control plane — autoscale on a tight SLO, one node failure with
// failover migrations — must be shard-count invariant, open and closed
// loop.
func TestShardedDeterminismPlain(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 1, BinPack
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.3

	shards := layoutSweep([]int{1, 2, 8}, []int{8})
	t.Run("open", func(t *testing.T) {
		assertShardInvariant(t, cfg, Traffic{Rate: 900_000, DurationSec: 0.8, Seed: 42}, shards)
	})
	t.Run("closed", func(t *testing.T) {
		assertShardInvariant(t, cfg, Traffic{Concurrency: 24, DurationSec: 0.8, Seed: 42}, shards)
	})
	t.Run("burst", func(t *testing.T) {
		tr := Traffic{DurationSec: 0.6, Seed: 9}
		tr.Burst = &workload.BurstSpec{PeakRate: 1_200_000, OnSeconds: 0.05, OffSeconds: 0.05}
		assertShardInvariant(t, cfg, tr, layoutSweep([]int{1, 3, 8}, []int{8}))
	})
}

// hedgedIngressConfig arms every robustness feature of the ingress
// route — timeouts, budgeted backoff retries, hedging, keep-alive —
// under lb, across autoscaling and a node failure.
func hedgedIngressConfig(t *testing.T, lb ingress.Policy) Config {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 800
	cfg.FailNodeAtSec = 0.2
	cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{
		LB: lb, KeepAlive: true, KeepAliveReqs: 32,
		Timeout: cycles.FromSeconds(400e-6), Retries: 2,
		Backoff: cycles.FromSeconds(50e-6), RetryBudget: 0.2, HedgeP: 0.95,
	}}
	return cfg
}

var hedgedIngressTraffic = Traffic{Rate: 600_000, DurationSec: 0.5, Seed: 11}

// TestShardedDeterminismIngress: the ingress tier with every
// robustness feature armed — timeouts, budgeted backoff retries,
// hedging, keep-alive — across a node failure, must be shard-count
// invariant for each load balancer, and match the pinned report bytes.
// Under the race detector only the 8-shard layout runs: the pin holds
// its bytes to the other layouts'.
func TestShardedDeterminismIngress(t *testing.T) {
	pinned := map[ingress.Policy]string{
		ingress.RoundRobin: "679638d52ceb9cad73bdde7b51ed15e7f72117175f8170c8d74f19a8d9b0898c",
		ingress.JSQ:        "25a5c5ed84f09518614d7548c53540e07f67c27151483beba0ccc5fe5c6867f9",
		ingress.PowerOfTwo: "e151101eb4ffa0a0026bc1f5d1399b870a1a31ee668e36ba122225dff0ae1d31",
	}
	for _, lb := range []ingress.Policy{ingress.RoundRobin, ingress.JSQ, ingress.PowerOfTwo} {
		t.Run(lb.String(), func(t *testing.T) {
			got := assertShardInvariant(t, hedgedIngressConfig(t, lb), hedgedIngressTraffic, layoutSweep([]int{1, 2, 8}, []int{8}))
			assertPinned(t, "ingress report", got, pinned[lb])
		})
	}
}

// TestShardedWorkerInvariance: ShardWorkers is purely a wall-clock
// knob — 1 (inline), 2, and 8 workers over 8 shards must produce the
// same bytes.
func TestShardedWorkerInvariance(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.FailNodeAtSec = 0.25
	cfg.Shards = 8
	tr := Traffic{Rate: 700_000, DurationSec: 0.5, Seed: 5}

	var want []byte
	for _, w := range layoutSweep([]int{1, 2, 8}, []int{2, 8}) {
		c := cfg
		c.ShardWorkers = w
		got := runJSON(t, c, tr)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("ShardWorkers=%d diverged:\n%s", w, firstDiff(want, got))
		}
	}
}

// TestShardedMixedEpochs: at the real poolMinEvents a bursty open
// loop runs its on-periods through the worker pool and its silences
// inline, switching back and forth within one run, and still gives the
// bytes of the always-inline ShardWorkers = 1 run.
func TestShardedMixedEpochs(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 4, 4, 16
	cfg.Shards = 4
	cfg.EpochUS = 400 // ~3,200 events per on-period epoch, a few per silent one
	cfg.Observe = &ObserveConfig{WindowUS: 5_000}
	tr := Traffic{DurationSec: 0.05, Seed: 3}
	tr.Burst = &workload.BurstSpec{PeakRate: 4_000_000, OnSeconds: 0.002, OffSeconds: 0.004}

	var want []byte
	for _, w := range []int{1, 2} {
		cf := cfg
		cf.ShardWorkers = w
		c, err := New(cf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := res.Trace.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		got = append(got, tb.Bytes()...)
		if want == nil {
			if c.sh.pooled != 0 {
				t.Fatalf("ShardWorkers=1 pooled %d epochs", c.sh.pooled)
			}
			want = got
			continue
		}
		if c.sh.inline == 0 || c.sh.pooled == 0 {
			t.Fatalf("want both kinds of epoch, got %d inline and %d pooled", c.sh.inline, c.sh.pooled)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("ShardWorkers=%d diverged from ShardWorkers=1:\n%s", w, firstDiff(want, got))
		}
	}
}

// TestShardedClosedLoopFlushInvariance: closed-loop re-admissions are
// routed at a barrier but applied by each shard's worker before the
// next epoch, except at barriers that read live queues first — fault
// and probe handling, and control steps. Here the epoch divides the
// control interval and the probe period, so those land on ordinary
// barriers while completions are staged; the plan adds a crash (whose
// lost backlog re-dispatches) and a gray window, autoscaling adds
// replicas and a rebalance migration, and queue-depth tracing runs on
// a ring small enough to overflow. Any shard count and worker count
// must give the same report, trace and time series — and the bytes
// the barrier produced when it admitted every re-issue on the spot,
// pinned below as a digest: a staged admission leaking past a flush
// point is layout-invariant, so only the pin catches it.
func TestShardedClosedLoopFlushInvariance(t *testing.T) {
	const pinned = "af78bfcb92c2cd8283e2582f090039d624eb2a0edd0a5699e3b246e8effa5e97"
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas, cfg.Policy = 1, 3, BinPack
	cfg.MaxNodes = 5
	cfg.Autoscale, cfg.SLOp99US = true, 45
	cfg.intervalSec = 0.02
	cfg.EpochUS = 100 // 200 epochs per control interval, 65 per probe period
	cfg.Chaos = &chaos.Plan{
		Probes: &chaos.Probes{IntervalSec: 0.0065, TimeoutUS: 20},
		Faults: []chaos.Fault{
			{Kind: chaos.KindGray, AtSec: 0.1, DurationSec: 0.06, Count: 2, CostFactor: 3, ErrorRate: 0.2},
			{Kind: chaos.KindCrash, AtSec: 0.17},
		},
	}
	cfg.Observe = &ObserveConfig{WindowUS: 10_000, RingCap: 2048, QueueDepth: true}
	tr := Traffic{Concurrency: 20, DurationSec: 0.2, Seed: 17}

	var want []byte
	for _, shards := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2} {
			cf := cfg
			cf.Shards, cf.ShardWorkers = shards, workers
			c, err := New(cf)
			if err != nil {
				t.Fatal(err)
			}
			c.sh.poolMin = 0
			res, err := c.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			assertPooled(t, c)
			for i := range c.sh.shards {
				if n := len(c.sh.shards[i].pend); n != 0 {
					t.Fatalf("Shards=%d: shard %d ended the run with %d staged admissions", shards, i, n)
				}
			}
			if want == nil {
				// The scenario must reach every path it claims to.
				if ch := res.Chaos; ch == nil || ch.Crashes != 1 || ch.GrayWindows != 1 || ch.ProbeFailures == 0 {
					t.Fatalf("chaos plan did not bite: %+v", res.Chaos)
				}
				acts := map[string]int{}
				for _, e := range res.ScaleEvents {
					acts[e.Action]++
				}
				if acts["add-replica"] == 0 || acts["node-failure"] != 1 {
					t.Fatalf("want autoscaling on top of the crash, got %v", acts)
				}
				if !slices.ContainsFunc(res.Migrations, func(m Migration) bool { return m.Reason == "rebalance" }) {
					t.Fatalf("want a rebalance migration, got %+v", res.Migrations)
				}
				if res.Trace.Dropped() == 0 {
					t.Fatal("trace ring never overflowed: batch boundaries are not exercised")
				}
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var tb, cb bytes.Buffer
			if err := res.Trace.WriteTrace(&tb); err != nil {
				t.Fatal(err)
			}
			if err := res.TimeSeries.WriteCSV(&cb); err != nil {
				t.Fatal(err)
			}
			got = append(append(got, tb.Bytes()...), cb.Bytes()...)
			if want == nil {
				want = got
				if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != pinned {
					t.Errorf("closed-loop flush scenario digest %s, want %s", sum, pinned)
				}
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("Shards=%d ShardWorkers=%d diverged from Shards=1 ShardWorkers=1:\n%s",
					shards, workers, firstDiff(want, got))
			}
		}
	}
}

// TestShardedScaleDownDrain: a scale-down whose victim still holds a
// request keeps serving it and retires at a later barrier, not at the
// control step that drained it. Here every replica has a job in
// service at each control barrier (one closed-loop connection per
// replica, two servers each, so the fleet never reads as backlogged),
// which makes every victim drain with a backlog; emptying a node then
// releases it one epoch later. A node failure mid-run reschedules
// replicas on top. Any shard count must give the bytes the
// barrier produced when it scanned every container for finished
// drains, pinned below.
func TestShardedScaleDownDrain(t *testing.T) {
	const pinned = "5d33eed8866680410931c4f4c115041d0bf3916599397174770b3e2d59b7a0cf"
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 1, 4, 8
	cfg.NodeCores, cfg.ReplicaCores = 4, 2
	cfg.Autoscale = true
	cfg.EpochUS = 200
	cfg.intervalSec = 0.01
	cfg.FailNodeAtSec = 0.045
	tr := Traffic{Concurrency: 8, DurationSec: 0.2, Seed: 4}

	got := assertShardInvariant(t, cfg, tr, []int{1, 2, 8})
	assertPinned(t, "scale-down drain report", got, pinned)
	var res Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	// The scenario must reach the path it pins: a drained node released
	// at a barrier that ran no control step.
	late := false
	for i, e := range res.ScaleEvents {
		if e.Action == "remove-node" && i > 0 && res.ScaleEvents[i-1].Action == "remove-replica" &&
			e.AtSec > res.ScaleEvents[i-1].AtSec {
			late = true
		}
	}
	if !late {
		t.Fatalf("no drain retired at a later barrier: %+v", res.ScaleEvents)
	}
}

// TestShardedSelfDeterminism: same sharded config run twice is
// bit-identical (the in-run guarantee, independent of the cross-shard
// one).
func TestShardedSelfDeterminism(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Autoscale, cfg.SLOp99US = true, 500
	cfg.Shards = 4
	tr := Traffic{Rate: 800_000, DurationSec: 0.4, Seed: 3}
	if a, b := runJSON(t, cfg, tr), runJSON(t, cfg, tr); !bytes.Equal(a, b) {
		t.Fatalf("sharded run not self-deterministic:\n%s", firstDiff(a, b))
	}
}

// TestShardedPlanetScale: the ISSUE's scale target — a 10k-node fleet
// with a 100k-connection closed loop — runs in CI time on the sharded
// engine and stays shard-count invariant. The horizon is short; the
// point is fleet size, not duration.
func TestShardedPlanetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("planet-scale fleet run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("planet-scale fleet run skipped under -race; the smaller invariance suites cover the same machinery")
	}
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 10_000, 10_000, 10_000
	cfg.NodeCores, cfg.ReplicaCores = 4, 1
	cfg.Policy = Spread
	tr := Traffic{Concurrency: 100_000, DurationSec: 0.002, Seed: 1}

	var want []byte
	for _, s := range []int{1, 8} {
		c := cfg
		c.Shards = s
		res := mustRun(t, c, tr)
		if res.Completed == 0 {
			t.Fatal("planet-scale run completed nothing")
		}
		if res.PeakContainers != 10_000 {
			t.Fatalf("PeakContainers = %d, want 10000", res.PeakContainers)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
			continue
		}
		if !bytes.Equal(want, b) {
			t.Fatalf("10k-node fleet diverged between Shards=1 and Shards=%d:\n%s", s, firstDiff(want, b))
		}
	}
}

// TestShardedEpochIsModelParameter: EpochUS legitimately changes the
// result (routing quantization is part of the model); Shards never
// does. Guard the first half so a future "optimization" that silently
// ties barriers to shard count gets caught.
func TestShardedEpochIsModelParameter(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Shards = 2
	tr := Traffic{Rate: 900_000, DurationSec: 0.3, Seed: 21}

	a := cfg
	a.EpochUS = 200
	b := cfg
	b.EpochUS = 2000
	ra, rb := runJSON(t, a, tr), runJSON(t, b, tr)
	if bytes.Equal(ra, rb) {
		t.Error("EpochUS 200 and 2000 produced identical results — quantization is not wired through")
	}
}

// TestShardedValidation pins the new Config error paths.
func TestShardedValidation(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Shards accepted")
	}
	cfg = testConfig(t, runtimes.XContainer)
	cfg.EpochUS = -5
	if _, err := New(cfg); err == nil {
		t.Error("negative EpochUS accepted")
	}
}
