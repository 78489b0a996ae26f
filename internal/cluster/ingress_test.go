package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
)

func ingressConfig(t *testing.T, pol ingress.Policy) Config {
	t.Helper()
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Ingress = &IngressConfig{
		Route: ingress.RoutePolicy{LB: pol},
	}
	return cfg
}

// TestIngressFrontsFleet: with an ingress tier configured, traffic still
// flows end to end, the Result carries per-route and per-service
// sections, and every fleet replica sees work.
func TestIngressFrontsFleet(t *testing.T) {
	cfg := ingressConfig(t, ingress.RoundRobin)
	res := mustRun(t, cfg, Traffic{Rate: 400_000, DurationSec: 0.3, Seed: 7})

	if res.Completed == 0 {
		t.Fatal("no requests completed through the ingress")
	}
	if res.Completed+res.Dropped > res.Arrived {
		t.Fatalf("conservation: arrived %d < completed %d + dropped %d",
			res.Arrived, res.Completed, res.Dropped)
	}
	if len(res.Routes) == 0 || len(res.IngressServices) == 0 {
		t.Fatalf("ingress sections missing: %d routes, %d services",
			len(res.Routes), len(res.IngressServices))
	}
	// The proxy hop is charged per request: latency through the ingress
	// must exceed zero and the entry route must account for every call.
	var entry *ingress.RouteStats
	for i := range res.Routes {
		if res.Routes[i].Route == "client->ingress" {
			entry = &res.Routes[i]
		}
	}
	if entry == nil {
		t.Fatalf("no client->ingress route in %+v", res.Routes)
	}
	if entry.Calls != res.Arrived {
		t.Fatalf("entry route saw %d calls, dispatched %d", entry.Calls, res.Arrived)
	}
	for _, s := range res.IngressServices {
		if s.Service == "fleet" && s.Completions == 0 {
			t.Fatal("fleet service recorded no completions")
		}
	}
}

// TestIngressConservation is an oracle independent of any golden: on
// both engines, every route's counters must balance against each other
// and against the fleet's own tally, whatever the balancer, faults and
// breaker do. Calls still in flight at the horizon make these
// inequalities rather than equalities.
func TestIngressConservation(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
		tr   Traffic
	}
	var scenarios []scenario
	for _, lb := range []ingress.Policy{ingress.RoundRobin, ingress.JSQ, ingress.PowerOfTwo} {
		scenarios = append(scenarios, scenario{"hedged-" + lb.String(), hedgedIngressConfig(t, lb), hedgedIngressTraffic})
	}
	scenarios = append(scenarios,
		scenario{"chaos-open", chaosConfig(t), Traffic{Rate: 700_000, DurationSec: 0.6, Seed: 11}},
		scenario{"chaos-closed", chaosConfig(t), Traffic{Concurrency: 32, DurationSec: 0.6, Seed: 11}})
	var sum ingress.RouteStats // the checks must have something to bite on
	for _, sc := range scenarios {
		for _, shards := range layoutSweep([]int{0, 4}, []int{4}) {
			cfg := sc.cfg
			cfg.Shards = shards
			res := mustRun(t, cfg, sc.tr)
			if len(res.Routes) != 2 {
				t.Fatalf("%s Shards=%d: %d routes, want ingress->fleet and client->ingress", sc.name, shards, len(res.Routes))
			}
			for _, r := range res.Routes {
				sum.Retries += r.Retries
				sum.HedgeWins += r.HedgeWins
				sum.Failed += r.Failed
				sum.Shed += r.Shed + r.BreakerFastFails + r.BudgetDenied + r.NoBackend
				retries := uint64(0) // the entry route never retries
				if r.Route == "ingress->fleet" {
					retries = uint64(cfg.Ingress.Route.Retries)
				}
				fail := func(format string, args ...any) {
					t.Errorf("%s Shards=%d route %s: "+format, append([]any{sc.name, shards, r.Route}, args...)...)
				}
				if r.Completed+r.Failed > r.Calls {
					fail("completed %d + failed %d > calls %d", r.Completed, r.Failed, r.Calls)
				}
				if r.HedgeWins > r.Hedges {
					fail("hedge wins %d > hedges %d", r.HedgeWins, r.Hedges)
				}
				if r.Retries > retries*r.Calls {
					fail("retries %d > %d per call × %d calls", r.Retries, retries, r.Calls)
				}
				if early := r.BudgetDenied + r.NoBackend + r.Shed + r.BreakerFastFails; early > r.Failed {
					fail("budget-denied %d + no-backend %d + shed %d + breaker fast-fails %d > failed %d",
						r.BudgetDenied, r.NoBackend, r.Shed, r.BreakerFastFails, r.Failed)
				}
				if r.Route == "client->ingress" && r.Completed != res.Completed {
					fail("completed %d, fleet completed %d", r.Completed, res.Completed)
				}
			}
		}
	}
	if sum.Retries == 0 || sum.HedgeWins == 0 || sum.Failed == 0 || sum.Shed == 0 {
		t.Fatalf("scenarios too tame to test conservation: %+v", sum)
	}
}

// TestIngressDeterminism: same config and seed, byte-identical Result —
// including the ingress route/service sections.
func TestIngressDeterminism(t *testing.T) {
	mk := func() *Result {
		cfg := ingressConfig(t, ingress.PowerOfTwo)
		cfg.Ingress.Route.HedgeP = 0.99
		cfg.Ingress.Route.Timeout = 2_900_000 // 1 ms
		cfg.Ingress.Route.Retries = 2
		cfg.Ingress.Route.RetryBudget = 0.2
		cfg.Autoscale, cfg.SLOp99US = true, 800
		cfg.FailNodeAtSec = 0.2
		return mustRun(t, cfg, Traffic{Rate: 700_000, DurationSec: 0.5, Seed: 99})
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config+seed produced different ingress results")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("ingress result JSON not byte-identical across runs")
	}
}

// TestIngressSurvivesNodeFailure: when a node dies, its replicas are
// marked down in the fleet service (no traffic routed into dead
// queues), the dropped backlog flows through the graph's retry policy,
// and the run still completes work afterwards.
func TestIngressSurvivesNodeFailure(t *testing.T) {
	cfg := ingressConfig(t, ingress.JSQ)
	cfg.Ingress.Route.Retries = 1
	// A wide proxy pushes the bottleneck into the fleet, and a deep
	// closed-loop population keeps replica queues full — so the failing
	// node holds waiting backlog at the moment it dies.
	cfg.Ingress.Cores = 16
	cfg.Nodes, cfg.Replicas = 2, 4
	cfg.FailNodeAtSec = 0.1
	res := mustRun(t, cfg, Traffic{Concurrency: 200, DurationSec: 0.4, Seed: 3})

	if res.Completed == 0 {
		t.Fatal("no completions across a node failure")
	}
	failed := false
	for _, n := range res.Nodes {
		failed = failed || n.Failed
	}
	if !failed {
		t.Fatal("failure injection did not fire")
	}
	// With one retry configured, jobs stranded on the dead node get one
	// more attempt elsewhere: the route must record retries or losses.
	var fleetRoute *ingress.RouteStats
	for i := range res.Routes {
		if res.Routes[i].Route == "ingress->fleet" {
			fleetRoute = &res.Routes[i]
		}
	}
	if fleetRoute == nil {
		t.Fatalf("no ingress->fleet route in %+v", res.Routes)
	}
	if fleetRoute.Lost == 0 {
		t.Fatal("node failure dropped no in-flight attempts through the graph")
	}
	if fleetRoute.Retries == 0 {
		t.Fatal("dropped attempts were not retried despite Retries=1")
	}
}

// TestIngressClosedLoop: a closed-loop population keeps its
// concurrency through the graph — every root completion reissues, so
// completions far exceed the population.
func TestIngressClosedLoop(t *testing.T) {
	cfg := ingressConfig(t, ingress.Weighted)
	res := mustRun(t, cfg, Traffic{Concurrency: 16, DurationSec: 0.2, Seed: 11})
	if res.Population != 16 {
		t.Fatalf("population = %d, want 16", res.Population)
	}
	if res.Completed < 1000 {
		t.Fatalf("closed loop only completed %d requests", res.Completed)
	}
}

// TestLegacyPathHasNoIngressSections: without an ingress config the
// Result must not grow route/service sections (golden stability for
// the JSQ front door).
func TestLegacyPathHasNoIngressSections(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	res := mustRun(t, cfg, Traffic{Rate: 200_000, DurationSec: 0.1, Seed: 1})
	if res.Routes != nil || res.IngressServices != nil {
		t.Fatal("legacy run grew ingress sections")
	}
}
