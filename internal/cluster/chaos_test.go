package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
)

// chaosPlan is the kitchen-sink scenario the determinism tests run:
// every fault kind plus the health sweep, against the ingress tier so
// partitions and the breaker have something to bite.
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{
		Probes: &chaos.Probes{IntervalSec: 0.01, TimeoutUS: 2000},
		Faults: []chaos.Fault{
			{Kind: chaos.KindCrash, AtSec: 0.15},
			{Kind: chaos.KindGray, AtSec: 0.2, DurationSec: 0.15, Count: 2, CostFactor: 4, ErrorRate: 0.3},
			{Kind: chaos.KindPartition, AtSec: 0.3, DurationSec: 0.1, Frac: 0.25},
			{Kind: chaos.KindRestart, AtSec: 0.45, Count: 2, RecoverySec: 0.01},
		},
	}
}

func chaosConfig(t *testing.T) Config {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.MaxNodes = 4
	cfg.Autoscale, cfg.SLOp99US = true, 800
	cfg.Chaos = chaosPlan()
	cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{
		LB: ingress.PowerOfTwo, KeepAlive: true, KeepAliveReqs: 32,
		Timeout: cycles.FromSeconds(400e-6), Retries: 2,
		Backoff: cycles.FromSeconds(50e-6), RetryBudget: 0.2,
		BreakerFailureRate: 0.5, ShedDepth: 512,
	}}
	return cfg
}

// TestChaosShardInvariance: a plan exercising every fault kind plus
// probes and the breaker must produce byte-identical Results for any
// shard count — chaos events fire at barriers, victims come from
// dedicated streams, and probe sweeps walk replicas in id order.
func TestChaosShardInvariance(t *testing.T) {
	cfg := chaosConfig(t)
	shards := layoutSweep([]int{1, 2, 8}, []int{8})
	t.Run("open", func(t *testing.T) {
		assertShardInvariant(t, cfg, Traffic{Rate: 700_000, DurationSec: 0.6, Seed: 11}, shards)
	})
	t.Run("closed", func(t *testing.T) {
		assertShardInvariant(t, cfg, Traffic{Concurrency: 32, DurationSec: 0.6, Seed: 11}, shards)
	})
}

// TestChaosWorkerInvariance: the worker count is a wall-clock knob.
func TestChaosWorkerInvariance(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Shards = 8
	tr := Traffic{Rate: 700_000, DurationSec: 0.5, Seed: 7}
	var want []byte
	for _, w := range layoutSweep([]int{1, 4}, []int{4}) {
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

// TestChaosSingleEngineDeterminism: Shards=0 is a different model but
// must be self-deterministic, and the plan must actually fire.
func TestChaosSingleEngineDeterminism(t *testing.T) {
	cfg := chaosConfig(t)
	tr := Traffic{Rate: 700_000, DurationSec: 0.6, Seed: 11}
	a := runJSON(t, cfg, tr)
	b := runJSON(t, cfg, tr)
	if !bytes.Equal(a, b) {
		t.Fatalf("single-engine chaos run not deterministic:\n%s", firstDiff(a, b))
	}
	res := mustRun(t, cfg, tr)
	if res.Chaos == nil {
		t.Fatal("armed plan produced no Chaos section")
	}
	if res.Chaos.Faults != 4 || res.Chaos.Crashes != 1 {
		t.Fatalf("Faults=%d Crashes=%d, want 4 faults and 1 crash", res.Chaos.Faults, res.Chaos.Crashes)
	}
	if res.Chaos.GrayWindows != 1 || res.Chaos.Partitions == 0 || res.Chaos.Restarts != 2 {
		t.Fatalf("gray=%d partitions=%d restarts=%d", res.Chaos.GrayWindows, res.Chaos.Partitions, res.Chaos.Restarts)
	}
	if res.Chaos.ProbesSent == 0 {
		t.Fatal("probes configured but none sent")
	}
}

// TestLegacyFailNodeLowering pins satellite semantics: FailNodeAtSec is
// lowered to an internal one-event plan that draws from the original
// failure stream at the original schedule position — no Chaos section,
// and the node-failure event is still reported. The byte-identity of
// whole reports is pinned by the pre-chaos goldens in xc.
func TestLegacyFailNodeLowering(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Shards = shards
		cfg.FailNodeAtSec = 0.2
		res := mustRun(t, cfg, Traffic{Rate: 400_000, DurationSec: 0.5, Seed: 3})
		if res.Chaos != nil {
			t.Fatalf("Shards=%d: legacy FailNodeAtSec must not emit a Chaos section", shards)
		}
		found := false
		for _, ev := range res.ScaleEvents {
			if ev.Action == "node-failure" {
				found = true
			}
		}
		if !found {
			t.Fatalf("Shards=%d: no node-failure event in %+v", shards, res.ScaleEvents)
		}
	}
}

// TestChaosExclusive: the legacy knob and a plan cannot be combined.
func TestChaosExclusive(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.FailNodeAtSec = 0.2
	cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindCrash, AtSec: 0.1}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Traffic{Rate: 100_000, DurationSec: 0.1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("want exclusivity error, got %v", err)
	}
}

// TestChaosSelfHealing: a gray window under probes must be detected
// (ejections) and healed after it closes (readmissions), on both
// engines.
func TestChaosSelfHealing(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Shards = shards
		cfg.Nodes, cfg.Replicas = 2, 4
		cfg.Chaos = &chaos.Plan{
			Probes: &chaos.Probes{IntervalSec: 0.005},
			Faults: []chaos.Fault{
				{Kind: chaos.KindGray, AtSec: 0.1, DurationSec: 0.2, Count: 2, CostFactor: 2, ErrorRate: 0.9},
			},
		}
		res := mustRun(t, cfg, Traffic{Rate: 400_000, DurationSec: 0.6, Seed: 5})
		x := res.Chaos
		if x == nil {
			t.Fatalf("Shards=%d: no chaos section", shards)
		}
		if x.Ejections == 0 {
			t.Fatalf("Shards=%d: gray replicas at 90%% error rate were never ejected (%+v)", shards, x)
		}
		if x.Readmissions == 0 {
			t.Fatalf("Shards=%d: healed replicas were never readmitted (%+v)", shards, x)
		}
		if x.ProbeFailures == 0 {
			t.Fatalf("Shards=%d: no probe failures recorded", shards)
		}
	}
}

// TestDeployPromote: a healthy canary rollout upgrades the whole fleet
// and reports promotion, identically across shard counts.
func TestDeployPromote(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 6
	cfg.intervalSec = 0.02
	cfg.Deploy = &DeployConfig{Strategy: StrategyCanary, StartSec: 0.1, BakeWindows: 2, MaxP99US: 1e6}
	tr := Traffic{Rate: 300_000, DurationSec: 1.0, Seed: 17}

	assertShardInvariant(t, cfg, tr, []int{1, 2, 8})

	for _, shards := range []int{0, 2} {
		c := cfg
		c.Shards = shards
		res := mustRun(t, c, tr)
		d := res.Deploy
		if d == nil {
			t.Fatalf("Shards=%d: no deploy section", shards)
		}
		if d.Outcome != "promoted" {
			t.Fatalf("Shards=%d: outcome %q, want promoted (%+v)", shards, d.Outcome, d)
		}
		if d.Upgraded < 6 {
			t.Fatalf("Shards=%d: only %d replicas upgraded", shards, d.Upgraded)
		}
		if d.RolledBack != 0 {
			t.Fatalf("Shards=%d: healthy rollout rolled back %d replicas", shards, d.RolledBack)
		}
	}
}

// TestDeployRollback: a version-targeted gray fault poisons the canary
// cohort as it upgrades; the SLO guard must catch the error rate and
// roll the fleet back to v1.
func TestDeployRollback(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Shards = shards
		cfg.Nodes, cfg.Replicas = 2, 6
		cfg.intervalSec = 0.02
		cfg.Deploy = &DeployConfig{
			Strategy: StrategyCanary, StartSec: 0.1, CanaryFrac: 0.34,
			BakeWindows: 5, MaxP99US: 1e6, MaxErrorRate: 0.02, RollbackAfter: 2,
		}
		cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.KindGray, AtSec: 0.05, DurationSec: 10, Version: 2, CostFactor: 1.5, ErrorRate: 0.5},
		}}
		res := mustRun(t, cfg, Traffic{Rate: 300_000, DurationSec: 1.0, Seed: 17})
		d := res.Deploy
		if d == nil {
			t.Fatalf("Shards=%d: no deploy section", shards)
		}
		if d.Outcome != "rolled-back" {
			t.Fatalf("Shards=%d: outcome %q, want rolled-back (%+v)", shards, d.Outcome, d)
		}
		if d.RolledBack == 0 {
			t.Fatalf("Shards=%d: rollback moved no replicas", shards)
		}
		if res.Erred == 0 {
			t.Fatalf("Shards=%d: poisoned canary produced no errors", shards)
		}
	}
}

// TestInertPlanCostFree: an empty plan must not perturb the run at all —
// same bytes as no plan. This is the "probes off, chaos free" guarantee.
func TestInertPlanCostFree(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Shards = 2
	tr := Traffic{Rate: 400_000, DurationSec: 0.4, Seed: 9}
	base := runJSON(t, cfg, tr)
	cfg.Chaos = &chaos.Plan{}
	inert := runJSON(t, cfg, tr)
	if !bytes.Equal(base, inert) {
		t.Fatalf("empty chaos plan perturbed the run:\n%s", firstDiff(base, inert))
	}
}

// TestProbeSweepAllocFree: the steady-state health sweep must not
// allocate — it runs every few virtual milliseconds over the whole
// fleet.
func TestProbeSweepAllocFree(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 2, 8
	cfg.Chaos = &chaos.Plan{Probes: &chaos.Probes{IntervalSec: 0.005, TimeoutUS: 1000}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.armChaos(1); err != nil {
		t.Fatal(err)
	}
	x := c.chaos
	x.probeSweep(0) // warm: detector growth
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			x.probeSweep(cycles.FromSeconds(0.01))
		}
	}); n != 0 {
		t.Fatalf("probeSweep allocates %v times in 100 steady-state sweeps, want 0", n)
	}
}

const fullDeploy = "canary@0.1,frac=0.2,bake=4,batch=8,p99us=900,err=0.02,after=3"

// badDeploys must fail ParseDeploy; unrunnableDeploys parse but must
// fail normalize. FuzzParseDeploy seeds from both.
var (
	badDeploys = []string{"rolling@x", "canary@0.1,frac", "canary@0.1,zzz=1",
		"canary@0.1,bake=3x", "canary@0.1abc", "canary@0.1,frac=0.2zz"}
	// NaN passes every range check, and ±Inf is no time or rate.
	unrunnableDeploys = []string{"yolo@0.1", "canary@NaN", "canary@0.1,frac=NaN",
		"canary@0.1,err=NaN", "rolling@Inf"}
)

// TestParseDeploy covers the DSL round trip.
func TestParseDeploy(t *testing.T) {
	d, err := ParseDeploy(fullDeploy)
	if err != nil {
		t.Fatal(err)
	}
	want := DeployConfig{Strategy: "canary", StartSec: 0.1, BatchSize: 8, CanaryFrac: 0.2,
		BakeWindows: 4, MaxP99US: 900, MaxErrorRate: 0.02, RollbackAfter: 3}
	if *d != want {
		t.Fatalf("got %+v want %+v", *d, want)
	}
	for _, bad := range badDeploys {
		if _, err := ParseDeploy(bad); err == nil {
			t.Fatalf("ParseDeploy(%q) accepted", bad)
		}
	}
	for _, bad := range unrunnableDeploys {
		if d, err := ParseDeploy(bad); err != nil {
			t.Fatal(err)
		} else if err := d.normalize(0); err == nil {
			t.Fatalf("ParseDeploy(%q) survived normalize: %+v", bad, *d)
		}
	}
}

// FuzzParseDeploy checks that ParseDeploy never panics, is
// deterministic, and that whatever survives normalize is a rollout the
// controller can run.
func FuzzParseDeploy(f *testing.F) {
	for _, s := range append(append([]string{fullDeploy, "rolling", "bluegreen@0.2,bake=1"}, badDeploys...), unrunnableDeploys...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDeploy(s)
		d2, err2 := ParseDeploy(s)
		// Compare printed forms: a parsed NaN is not DeepEqual to itself.
		if a, b := fmt.Sprintf("%+v %v", d, err), fmt.Sprintf("%+v %v", d2, err2); a != b {
			t.Fatalf("ParseDeploy(%q) differs between runs: %s vs %s", s, a, b)
		}
		if err != nil || d.normalize(500) != nil {
			return
		}
		for _, v := range []float64{d.StartSec, d.CanaryFrac, d.MaxP99US, d.MaxErrorRate} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseDeploy(%q) normalized to a non-finite value: %+v", s, *d)
			}
		}
		if d.CanaryFrac <= 0 || d.CanaryFrac > 1 || d.BakeWindows < 1 || d.RollbackAfter < 1 {
			t.Fatalf("ParseDeploy(%q) normalized out of range: %+v", s, *d)
		}
	})
}
