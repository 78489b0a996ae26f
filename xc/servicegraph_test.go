package xc

import (
	"math"
	"strings"
	"testing"
)

// wikiGraph is the 3-tier topology the servicegraph example runs:
// nginx frontends fan into a PHP app tier, which consults a memcached
// tier and falls through to MySQL on misses.
func wikiGraph() *ServiceGraphSpec {
	g := ServiceGraph()
	g.Service("web", App("nginx"), 2)
	g.Service("app", App("php"), 4)
	g.Service("cache", App("memcached"), 2)
	g.Service("db", App("mysql"), 2)
	g.Entry("web", Ingress().Policy(PowerOfTwo))
	g.Route("web", "app", Ingress().Policy(LeastQueue))
	g.Route("app", "cache", Ingress().CacheHit(0.9))
	g.Route("app", "db", Ingress())
	return g
}

func TestServiceGraphValidation(t *testing.T) {
	cases := []struct {
		name string
		g    *ServiceGraphSpec
		want string
	}{
		{"empty", ServiceGraph(), "no services"},
		{"no-entry", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1)
			return g
		}(), "needs an Entry"},
		{"unknown-entry", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1)
			return g.Entry("b", nil)
		}(), "not declared"},
		{"zero-replicas", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 0)
			return g.Entry("a", nil)
		}(), "at least one replica"},
		{"bad-weights", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 2).Weights(1, 2, 3)
			return g.Entry("a", nil)
		}(), "3 weights for 2 replicas"},
		{"cycle", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1)
			g.Service("b", App("nginx"), 1)
			g.Entry("a", nil)
			g.Route("a", "b", nil)
			g.Route("b", "a", nil)
			return g
		}(), "cycle"},
		{"unknown-route", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1)
			g.Entry("a", nil)
			return g.Route("a", "ghost", nil)
		}(), "undeclared"},
		{"bad-fault", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1).Down(3, 0.1, 0.2)
			return g.Entry("a", nil)
		}(), "targets replica 3"},
		{"nan-brown-out", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1).BrownOut(0, math.NaN(), 0.1, 0.2)
			return g.Entry("a", nil)
		}(), "brown-out factor NaN"},
		{"negative-brown-out", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1).BrownOut(0, -2, 0.1, 0.2)
			return g.Entry("a", nil)
		}(), "brown-out factor -2"},
		{"nan-window-start", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1).BrownOut(0, 4, math.NaN(), 0.2)
			return g.Entry("a", nil)
		}(), "fault window [NaN"},
		{"endless-window", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1).Down(0, 0.1, math.Inf(1))
			return g.Entry("a", nil)
		}(), "must be finite"},
		{"duplicate", func() *ServiceGraphSpec {
			g := ServiceGraph()
			g.Service("a", App("nginx"), 1)
			g.Service("a", App("nginx"), 1)
			return g.Entry("a", nil)
		}(), "duplicate service"},
	}
	p := MustNewPlatform(XContainer)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := p.ServeGraph(tc.g, Traffic().Duration(0.01))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestServiceGraphThreeTierServes(t *testing.T) {
	p := MustNewPlatform(XContainer)
	rep, err := p.ServeGraph(wikiGraph(), Traffic().Rate(15_000).Duration(0.5).Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 || rep.Failed > 0 {
		t.Fatalf("served %d, failed %d", rep.Served, rep.Failed)
	}
	if len(rep.Routes) != 4 || len(rep.Services) != 4 {
		t.Fatalf("got %d routes, %d services", len(rep.Routes), len(rep.Services))
	}
	byName := map[string]ServiceReport{}
	for _, s := range rep.Services {
		byName[s.Service] = s
	}
	// 90% cache hits short-circuit the db tier: it should see roughly a
	// tenth of the cache tier's traffic, and never more than a quarter.
	cacheN, dbN := byName["cache"].Completions, byName["db"].Completions
	if dbN == 0 || dbN*4 > cacheN {
		t.Fatalf("cache hit ratio not visible: cache %d vs db %d completions", cacheN, dbN)
	}
	// Every tier is on the request path.
	for _, name := range []string{"web", "app", "cache"} {
		if byName[name].Completions == 0 {
			t.Fatalf("tier %s saw no traffic", name)
		}
	}
}

func TestServiceGraphDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		p := MustNewPlatform(XContainer)
		g := wikiGraph()
		// Exercise the fault machinery too: a browned-out app replica.
		g.byName["app"].BrownOut(1, 4, 0.1, 0.3)
		rep, err := p.ServeGraph(g, Traffic().Rate(12_000).Duration(0.4).Seed(seed))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatal("same graph+seed produced different JSON")
	}
	if run(12) == a {
		t.Fatal("different seed produced identical JSON — seed not wired")
	}
}

// stormGraph is the retry-storm scenario: an app tier calling an
// overloaded db tier through a timeout/retry route. A db brown-out
// during [0.1s, 0.3s) pushes the tier past saturation; aggressive
// retries without a budget amplify the overload and keep burning db
// capacity on stale work long after the brown-out lifts.
func stormGraph(budget float64) *ServiceGraphSpec {
	g := ServiceGraph()
	g.Service("app", App("php"), 4)
	g.Service("db", App("mysql"), 2).BrownOut(0, 6, 0.1, 0.3)
	g.Entry("app", Ingress().Policy(PowerOfTwo))
	g.Route("app", "db", Ingress().Policy(PowerOfTwo).
		TimeoutMicros(400).Retries(3).BackoffMicros(50).RetryBudget(budget))
	return g
}

func TestRetryStormBudgetGolden(t *testing.T) {
	run := func(budget float64) *GraphReport {
		p := MustNewPlatform(XContainer)
		// 1.2s horizon: the brown-out lifts at 0.3s; the budgeted run
		// drains its backlog and recovers by ~0.65s, while the
		// unbudgeted storm stays metastable to the end of the run.
		rep, err := p.ServeGraph(stormGraph(budget), Traffic().Rate(55_000).Duration(1.2).Seed(21))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	storm, budget := run(0), run(0.1)

	dbRoute := func(r *GraphReport) RouteReport {
		for _, rt := range r.Routes {
			if rt.Route == "app->db" {
				return rt
			}
		}
		t.Fatal("no app->db route")
		return RouteReport{}
	}
	sr, br := dbRoute(storm), dbRoute(budget)
	if sr.Retries <= 2*br.Retries {
		t.Fatalf("no storm: unbudgeted retries %d vs budgeted %d", sr.Retries, br.Retries)
	}
	if br.BudgetDenied == 0 {
		t.Fatal("retry budget never denied a retry")
	}
	// The acceptance criterion: goodput collapses under the storm and
	// the budget restores it.
	if float64(storm.Served) > 0.9*float64(budget.Served) {
		t.Fatalf("no goodput collapse: storm served %d vs budgeted %d", storm.Served, budget.Served)
	}
	// Wasted db work — completions for callers that already gave up —
	// is the storm's signature.
	wasted := func(r *GraphReport) uint64 {
		for _, s := range r.Services {
			if s.Service == "db" {
				return s.Wasted
			}
		}
		return 0
	}
	if wasted(storm) <= wasted(budget) {
		t.Fatalf("storm wasted %d <= budgeted %d", wasted(storm), wasted(budget))
	}

	for name, rep := range map[string]*GraphReport{
		"graph_storm.json":        storm,
		"graph_storm_budget.json": budget,
	} {
		blob, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, blob)
	}
}

// hedgeGraph: a cache tier with one pathologically slow replica.
// Power-of-two routing occasionally commits a request to the slow
// replica; without hedging those picks dominate p99.
func hedgeGraph(hedgeP float64) *ServiceGraphSpec {
	g := ServiceGraph()
	g.Service("cache", App("memcached"), 4).BrownOut(0, 20, 0, 1)
	g.Entry("cache", Ingress().Policy(PowerOfTwo).Hedge(hedgeP))
	return g
}

func TestHedgingCutsTailGolden(t *testing.T) {
	run := func(hedgeP float64) *GraphReport {
		p := MustNewPlatform(XContainer)
		rep, err := p.ServeGraph(hedgeGraph(hedgeP), Traffic().Rate(400_000).Duration(0.4).Seed(33))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, hedged := run(0), run(0.95)

	if hedged.Routes[0].Hedges == 0 || hedged.Routes[0].HedgeWins == 0 {
		t.Fatalf("hedging never fired: %+v", hedged.Routes[0])
	}
	if plain.Routes[0].Hedges != 0 {
		t.Fatal("unhedged run recorded hedges")
	}
	// The acceptance criterion: hedging measurably lowers p99 at the
	// same seed.
	if hedged.Latency.P99US >= 0.8*plain.Latency.P99US {
		t.Fatalf("hedging did not cut p99: %.1fus vs %.1fus plain",
			hedged.Latency.P99US, plain.Latency.P99US)
	}

	for name, rep := range map[string]*GraphReport{
		"graph_hedge_off.json": plain,
		"graph_hedge_on.json":  hedged,
	} {
		blob, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, blob)
	}
}

// TestClusterIngressReportGolden pins a fleet-behind-ingress run — the
// proxy hop, power-of-two routing, timeouts and hedging across a node
// failure — to the byte.
func TestClusterIngressReportGolden(t *testing.T) {
	c, err := NewCluster(XContainer)
	if err != nil {
		t.Fatal(err)
	}
	spec := ClusterSpec{
		Nodes:     2,
		MaxNodes:  3,
		NodeCores: 4,
		Replicas:  3,
		Policy:    Spread,
		Autoscale: true,
		SLOMillis: 0.5,
		FailNode:  0.15,
		Ingress: Ingress().Policy(PowerOfTwo).KeepAlive(100).
			TimeoutMicros(800).Retries(2).RetryBudget(0.2).Hedge(0.99),
	}
	rep, err := c.Serve(App("nginx"), spec, Traffic().Rate(700_000).Duration(0.3).Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Routes) == 0 || len(rep.IngressServices) == 0 {
		t.Fatal("ingress sections missing from cluster report")
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_ingress.json", blob)
}

// TestIngressSweepParallelDeterminism: a cluster-behind-ingress sweep
// merges to byte-identical JSON regardless of the worker count.
func TestIngressSweepParallelDeterminism(t *testing.T) {
	run := func(parallel int) string {
		rep, err := Sweep(SweepSpec{
			Kind:     XContainer,
			Workload: App("memcached"),
			Traffic:  Traffic().Duration(0.2),
			Rates:    []float64{300_000, 600_000},
			Seeds:    []uint64{1, 2, 3},
			Cluster: &ClusterSpec{
				Nodes: 2, NodeCores: 4, Replicas: 3,
				Ingress: Ingress().Policy(LeastQueue).TimeoutMicros(900).Retries(1),
			},
			Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	if run(1) != run(4) {
		t.Fatal("sweep JSON depends on worker count")
	}
}
