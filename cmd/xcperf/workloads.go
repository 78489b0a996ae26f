package main

import (
	"fmt"
	"reflect"

	"xcontainers/internal/apps"
	"xcontainers/internal/bench"
	"xcontainers/internal/chaos"
	"xcontainers/internal/cluster"
	"xcontainers/internal/core"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
	"xcontainers/xc"
)

// A workload is one fixed simulation a user of the repository waits
// for. setup builds every input from the seed and performs the
// construction calls (cluster.New, xc.NewPlatform); the serve function
// it returns is the timed part. workers is the shard worker count
// (0 = the engine default); only sharded workloads use it.
type workload struct {
	name    string
	sharded bool
	setup   func(sp *spans, seed uint64, workers int) (serveFunc, error)
}

// serveFunc runs one pass of a workload after set-up.
type serveFunc func(sp *spans) (*outcome, error)

// outcome is what one pass produced: the canonical result whose JSON
// encoding is digested, the semantic checks it failed, and the
// deterministic per-layer counts keyed by metric name.
type outcome struct {
	result   any
	problems []string
	counts   map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads is the benchmark's workload set, in the order passes
// interleave. The README records why each one is here.
var workloads = []*workload{
	{name: "paper-sweep", setup: paperSweep},
	{name: "planet-fleet", sharded: true, setup: planetFleet},
	{name: "canary-rollout", sharded: true, setup: canaryRollout},
	{name: "fleet-ingress", sharded: true, setup: fleetIngress},
	{name: "graph-storm", setup: graphStorm},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ","
		}
		s += w.name
	}
	return s
}

// sweepsPerPass repeats the §5 sweep inside one pass: a single sweep
// is under 2 s and varies by about a fifth run to run.
const sweepsPerPass = 3

// paperSweep runs every registered §5 experiment sweepsPerPass times.
// Its inputs are the paper's fixed configurations, so it ignores the
// seed; every sweep must reproduce the first one exactly.
func paperSweep(_ *spans, _ uint64, _ int) (serveFunc, error) {
	exps := bench.Experiments()
	return func(sp *spans) (*outcome, error) {
		var first []*bench.Report
		o := &outcome{}
		for i := 0; i < sweepsPerPass; i++ {
			reports := make([]*bench.Report, 0, len(exps))
			for _, e := range exps {
				var rep *bench.Report
				err := sp.do("exp."+e.ID, func() (err error) {
					rep, err = e.Run()
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
				}
				o.check(rep != nil && len(rep.Tables) > 0, "experiment %s reported no tables", e.ID)
				reports = append(reports, rep)
			}
			if first == nil {
				first = reports
			} else {
				o.check(reflect.DeepEqual(first, reports), "sweep %d differs from sweep 1", i+1)
			}
		}
		o.result = first
		return o, nil
	}, nil
}

// fleetConfig is a fleet of memcached replicas on X-Container nodes:
// the platform xc.NewCluster boots and the application every cluster
// example serves.
func fleetConfig() (cluster.Config, error) {
	app, err := apps.ByName("memcached")
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Platform: core.PlatformConfig{
			Kind: runtimes.XContainer, MeltdownPatched: true,
			Cloud: runtimes.LocalCluster, FastToolstack: true,
		},
		App:       app,
		NodeCores: 4,
	}, nil
}

// newCluster is cluster.New under a span.
func newCluster(sp *spans, cfg cluster.Config) (*cluster.Cluster, error) {
	var c *cluster.Cluster
	err := sp.do("cluster.New", func() (err error) {
		c, err = cluster.New(cfg)
		return err
	})
	return c, err
}

// runCluster is (*cluster.Cluster).Run under a span.
func runCluster(sp *spans, name string, c *cluster.Cluster, t cluster.Traffic) (*cluster.Result, error) {
	var res *cluster.Result
	err := sp.do(name, func() (err error) {
		res, err = c.Run(t)
		return err
	})
	return res, err
}

// planetFleet is the 10k-node run: the same cluster.Config as
// xctl -cluster -nodes 10000 -replicas 10000 -shards 8 -duration 0.01,
// a saturating closed loop at the default population.
func planetFleet(sp *spans, seed uint64, workers int) (serveFunc, error) {
	cfg, err := fleetConfig()
	if err != nil {
		return nil, err
	}
	cfg.Nodes, cfg.Replicas = 10_000, 10_000
	cfg.Policy, cfg.Autoscale = cluster.BinPack, true
	cfg.Shards, cfg.ShardWorkers = 8, workers
	c, err := newCluster(sp, cfg)
	if err != nil {
		return nil, err
	}
	return func(sp *spans) (*outcome, error) {
		res, err := runCluster(sp, "cluster.Run", c, cluster.Traffic{DurationSec: 0.01, Seed: seed})
		if err != nil {
			return nil, err
		}
		o := &outcome{result: res, counts: map[string]float64{}}
		checkFleet(o, res)
		addClusterCounts(o.counts, c.EventsFired(), res)
		return o, nil
	}, nil
}

// rolloutArms are the two arms of examples/rollout: the same canary
// deploy with and without a gray fault on every v2 replica.
var rolloutArms = []struct {
	name  string
	chaos string
	want  string
}{
	{"arm.healthy", "", "promoted"},
	{"arm.poisoned", "gray@0.05+10,version=2,cost=2,err=0.5", "rolled-back"},
}

// canaryRollout serves both rolloutArms: a 500-replica canary upgrade
// under 1M req/s open-loop traffic. The healthy arm must promote and
// the poisoned one roll back.
func canaryRollout(sp *spans, seed uint64, workers int) (serveFunc, error) {
	clusters := make([]*cluster.Cluster, len(rolloutArms))
	for i, arm := range rolloutArms {
		cfg, err := fleetConfig()
		if err != nil {
			return nil, err
		}
		cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 125, 125, 500
		cfg.Policy, cfg.SLOp99US = cluster.Spread, 1000
		cfg.Shards, cfg.ShardWorkers = 8, workers
		if cfg.Deploy, err = cluster.ParseDeploy("canary@0.1,frac=0.05,bake=3,batch=50,p99us=20000,err=0.02,after=2"); err != nil {
			return nil, err
		}
		if arm.chaos != "" {
			if cfg.Chaos, err = chaos.Parse(arm.chaos); err != nil {
				return nil, err
			}
		}
		if clusters[i], err = newCluster(sp, cfg); err != nil {
			return nil, err
		}
	}
	return func(sp *spans) (*outcome, error) {
		o := &outcome{counts: map[string]float64{}}
		results := make([]*cluster.Result, len(rolloutArms))
		for i, arm := range rolloutArms {
			res, err := runCluster(sp, arm.name, clusters[i], cluster.Traffic{Rate: 1_000_000, DurationSec: 1.2, Seed: seed})
			if err != nil {
				return nil, err
			}
			checkFleet(o, res)
			got := "none"
			if res.Deploy != nil {
				got = res.Deploy.Outcome
			}
			o.check(got == arm.want, "%s: rollout outcome %s, want %s", arm.name, got, arm.want)
			addClusterCounts(o.counts, clusters[i].EventsFired(), res)
			results[i] = res
		}
		o.result = results
		return o, nil
	}, nil
}

// fleetIngress is 2,000 replicas on 500 nodes behind the flyweight L7
// ingress (p2c, keep-alive, timeout, retries, breaker, shedding) with
// a gray fault window and health probes, at 500k req/s open loop.
func fleetIngress(sp *spans, seed uint64, workers int) (serveFunc, error) {
	cfg, err := fleetConfig()
	if err != nil {
		return nil, err
	}
	cfg.Nodes, cfg.Replicas, cfg.Policy = 500, 2000, cluster.Spread
	cfg.Shards, cfg.ShardWorkers = 8, workers
	cfg.Ingress = &cluster.IngressConfig{Route: ingress.RoutePolicy{
		LB: ingress.PowerOfTwo, KeepAlive: true, KeepAliveReqs: 100,
		Timeout: cycles.FromMicros(200), Retries: 2,
		BreakerFailureRate: 0.5, ShedDepth: 64,
	}}
	if cfg.Chaos, err = chaos.Parse("gray@0.2+0.3,count=200,cost=8,err=0.3;probes,interval=0.005"); err != nil {
		return nil, err
	}
	c, err := newCluster(sp, cfg)
	if err != nil {
		return nil, err
	}
	return func(sp *spans) (*outcome, error) {
		res, err := runCluster(sp, "cluster.Run", c, cluster.Traffic{Rate: 500_000, DurationSec: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		o := &outcome{result: res, counts: map[string]float64{}}
		checkFleet(o, res)
		o.check(res.Chaos != nil && res.Chaos.ProbesSent > 0, "health probes never ran")
		addClusterCounts(o.counts, c.EventsFired(), res)
		return o, nil
	}, nil
}

// checkFleet holds for every fleet run: it served something and lost
// no more requests than arrived.
func checkFleet(o *outcome, res *cluster.Result) {
	o.check(res.Completed > 0, "no request completed")
	o.check(res.Dropped <= res.Arrived, "dropped %d > arrived %d", res.Dropped, res.Arrived)
	o.check(res.Completed <= res.Arrived, "completed %d > arrived %d", res.Completed, res.Arrived)
}

// addClusterCounts sums one fleet run's deterministic counts into m;
// events is the run's cluster.EventsFired.
func addClusterCounts(m map[string]float64, events uint64, res *cluster.Result) {
	m["sim.events"] += float64(events)
	m["cluster.arrived"] += float64(res.Arrived)
	m["cluster.completed"] += float64(res.Completed)
	m["cluster.dropped"] += float64(res.Dropped)
	m["cluster.erred"] += float64(res.Erred)
	m["cluster.migrations"] += float64(len(res.Migrations))
	addRouteCounts(m, res.Routes, res.IngressServices)
	if x := res.Chaos; x != nil {
		m["chaos.probes_sent"] += float64(x.ProbesSent)
		m["chaos.ejections"] += float64(x.Ejections)
	}
	if d := res.Deploy; d != nil {
		m["deploy.guard_breaches"] += float64(d.GuardBreaches)
		m["deploy.rolled_back"] += float64(d.RolledBack)
	}
	if ts := res.TimeSeries; ts != nil {
		m["obs.trace_records"] += float64(ts.TraceRecords)
		m["obs.trace_dropped"] += float64(ts.TraceDropped)
	}
}

// addRouteCounts sums the ingress tier's route and service counters.
// ingress.completed is kept only to derive ingress.useful_frac.
func addRouteCounts(m map[string]float64, routes []ingress.RouteStats, services []ingress.ServiceStats) {
	for _, r := range routes {
		m["ingress.calls"] += float64(r.Calls)
		m["ingress.completed"] += float64(r.Completed)
		m["ingress.retries"] += float64(r.Retries)
		m["ingress.timeouts"] += float64(r.Timeouts)
		m["ingress.hedges"] += float64(r.Hedges)
		m["ingress.handshakes"] += float64(r.Handshakes)
		m["ingress.shed"] += float64(r.Shed)
		m["ingress.breaker_opens"] += float64(r.BreakerOpens)
	}
	for _, s := range services {
		m["ingress.wasted"] += float64(s.Wasted)
	}
}

// wiki is the three-tier topology of examples/servicegraph with the
// contested web->app route under pol.
func wiki(pol xc.LBPolicy) *xc.ServiceGraphSpec {
	g := xc.ServiceGraph()
	g.Service("web", xc.App("Nginx"), 2)
	g.Service("app", xc.App("PHP"), 4).BrownOut(0, 4, 0.2, 0.8)
	g.Service("cache", xc.App("memcached"), 2)
	g.Service("db", xc.App("MySQL"), 2)
	g.Entry("web", xc.Ingress().Policy(xc.PowerOfTwo).KeepAlive(100))
	g.Route("web", "app", xc.Ingress().Policy(pol).
		TimeoutMicros(2_000).Retries(1).RetryBudget(0.2).Hedge(0.99))
	g.Route("app", "cache", xc.Ingress().CacheHit(0.9))
	g.Route("app", "db", xc.Ingress())
	return g
}

// storm is the observed retry-storm topology of examples/servicegraph.
func storm() *xc.ServiceGraphSpec {
	g := xc.ServiceGraph()
	g.Service("app", xc.App("php"), 4)
	g.Service("db", xc.App("mysql"), 2).BrownOut(0, 6, 0.1, 0.3)
	g.Entry("app", xc.Ingress().Policy(xc.PowerOfTwo))
	g.Route("app", "db", xc.Ingress().Policy(xc.PowerOfTwo).
		TimeoutMicros(400).Retries(3).BackoffMicros(50))
	g.Observe(xc.Observe().WindowMicros(10_000))
	return g
}

// wikiBalancers are the web->app route policies the wiki runs under.
var wikiBalancers = []struct {
	name string
	pol  xc.LBPolicy
}{{"rr", xc.RoundRobin}, {"weighted", xc.WeightedRR}, {"jsq", xc.LeastQueue}, {"p2c", xc.PowerOfTwo}}

// graphStorm serves the servicegraph topologies on the single-engine
// ingress.Graph: the wiki under each balancer, then the retry storm,
// each for graphSeconds of virtual time.
func graphStorm(sp *spans, seed uint64, _ int) (serveFunc, error) {
	const graphSeconds = 10
	var p *xc.Platform
	if err := sp.do("xc.NewPlatform", func() (err error) {
		p, err = xc.NewPlatform(xc.XContainer)
		return err
	}); err != nil {
		return nil, err
	}
	type run struct {
		name    string
		graph   *xc.ServiceGraphSpec
		traffic *xc.TrafficSpec
	}
	var runs []run
	for _, lb := range wikiBalancers {
		runs = append(runs, run{"graph.wiki_" + lb.name, wiki(lb.pol), xc.Traffic().Rate(40_000).Duration(graphSeconds).Seed(seed)})
	}
	runs = append(runs, run{"graph.storm", storm(), xc.Traffic().Rate(55_000).Duration(graphSeconds).Seed(seed)})
	return func(sp *spans) (*outcome, error) {
		o := &outcome{counts: map[string]float64{}}
		reports := make([]*xc.GraphReport, len(runs))
		for i, r := range runs {
			var rep *xc.GraphReport
			if err := sp.do(r.name, func() (err error) {
				rep, err = p.ServeGraph(r.graph, r.traffic)
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			o.check(rep.Served > 0, "%s served nothing", r.name)
			o.check(rep.Served+rep.Failed <= rep.Admitted, "%s: served %d + failed %d > admitted %d", r.name, rep.Served, rep.Failed, rep.Admitted)
			addRouteCounts(o.counts, rep.Routes, rep.Services)
			if ts := rep.TimeSeries; ts != nil {
				o.counts["obs.trace_records"] += float64(ts.TraceRecords)
				o.counts["obs.trace_dropped"] += float64(ts.TraceDropped)
			}
			reports[i] = rep
		}
		o.result = reports
		return o, nil
	}, nil
}
