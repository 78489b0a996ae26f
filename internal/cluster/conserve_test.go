package cluster

import (
	"fmt"
	"slices"
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// TestShardedConservation balances a plain sharded fleet's request
// counters at the horizon, with autoscaling on, a node crash (failover
// placement, backlog lost with the node) and a whole-fleet partition
// (requests the front door cannot route). The counters obey, exactly:
//
//	offered   = Arrived + doorDropped
//	Arrived   = Completed + Erred + (Dropped - doorDropped) + inFlight
//	fleet.Count() = Completed
//	Σ windows.Dropped = Dropped
//	Σ windows.Arrived = Arrived
//
// offered is the open-loop stream regenerated from the traffic seed:
// every arrival instant before the horizon. An arrival that is not
// Arrived found no routable replica at the door, so doorDropped is
// offered - Arrived. Dropped - doorDropped is then the waiting backlog
// lost with the crashed node, and inFlight the jobs still in the
// replica queues (waiting or in service) at the horizon. The time
// series' dropped column counts both kinds of drop.
func TestShardedConservation(t *testing.T) {
	cfg, tr := conservationFixture(t)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	var offered uint64
	horizon := c.horizon
	arr, rng := tr.Arrivals(), sim.NewRand(tr.Seed)
	for at := arr.Next(rng); at < horizon; at += arr.Next(rng) {
		offered++
	}
	var winDropped, winArrived uint64
	for _, w := range res.TimeSeries.Windows {
		winDropped += w.Dropped
		winArrived += w.Arrived
	}
	if offered < res.Arrived {
		t.Fatalf("arrived %d of %d offered", res.Arrived, offered)
	}
	doorDropped := offered - res.Arrived
	var inFlight uint64
	for _, ct := range c.containers {
		inFlight += uint64(ct.q.Depth())
	}
	lost := res.Dropped - doorDropped
	t.Logf("offered %d, arrived %d, door-dropped %d, completed %d, erred %d, backlog lost %d, in flight %d",
		offered, res.Arrived, doorDropped, res.Completed, res.Erred, lost, inFlight)

	if res.Chaos == nil || res.Chaos.Crashes != 1 || len(res.Migrations) == 0 {
		t.Fatalf("the crash did not fail over: %+v, %d migrations", res.Chaos, len(res.Migrations))
	}
	if doorDropped == 0 || lost == 0 || doorDropped > res.Dropped {
		t.Fatalf("want both kinds of drop: %d at the door of %d dropped", doorDropped, res.Dropped)
	}
	if winDropped != res.Dropped {
		t.Errorf("time series drops %d, result drops %d", winDropped, res.Dropped)
	}
	if winArrived != res.Arrived {
		t.Errorf("time series arrivals %d, result arrivals %d", winArrived, res.Arrived)
	}
	if got := res.Completed + res.Erred + lost + inFlight; res.Arrived != got {
		t.Errorf("arrived %d != completed %d + erred %d + lost %d + in flight %d = %d",
			res.Arrived, res.Completed, res.Erred, lost, inFlight, got)
	}
	if got := c.fleet.Count(); got != res.Completed {
		t.Errorf("fleet histogram counts %d, completed %d", got, res.Completed)
	}
}

// conservationFixture is TestShardedConservation's fleet and load: a
// plain sharded fleet with autoscaling, a node crash and a whole-fleet
// partition, on two workers.
func conservationFixture(t *testing.T) (Config, Traffic) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 4, 6, 8
	cfg.Autoscale = true
	cfg.SLOp99US = 50
	cfg.Shards, cfg.ShardWorkers = 4, 2
	cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, AtSec: 0.012, Count: 1},
		{Kind: chaos.KindPartition, AtSec: 0.03, DurationSec: 0.005, Frac: 1},
	}}
	cfg.Observe = &ObserveConfig{WindowUS: 5000}
	return cfg, Traffic{Rate: 3_000_000, DurationSec: 0.05, Seed: 3}
}

// TestShardedClosedLoopConservation balances a sharded closed loop's
// connections and requests, with autoscaling on, a gray window, a node
// crash (failover placement, the waiting backlog taken off the node)
// and a whole-fleet partition shorter than one service time (the
// re-issues due inside it find no routable replica), on two workers
// forced to pool, so every barrier's re-issue runs as two streams. A closed-loop connection is one request id at a time:
// a crash's lost backlog reconnects through dispatch at once, so it
// ends up in flight or dropped like any re-issue. Between any two
// barrier steps, every connection of the population is in exactly one
// place:
//
//	population = inFlight + staged + awaiting + Dropped + atHorizon
//
// inFlight counts the jobs in the replica queues (waiting or in
// service), staged the routed admissions not yet applied, awaiting the
// completions the next barrier re-issues, Dropped the re-issues that
// found no routable replica (each closes its connection), and
// atHorizon the completions at the horizon instant, which the final
// barrier does not re-issue. At the horizon the request counters obey
//
//	Arrived = Completed + Erred + lost + inFlight
//
// where lost is the backlog taken off replicas, read from the queues'
// own counters (arrived − completed − depth), while Arrived, Completed
// and Erred are the cluster's; the queues' own totals must match them.
func TestShardedClosedLoopConservation(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 4, 6, 8
	cfg.Autoscale = true
	cfg.SLOp99US = 50
	cfg.intervalSec = 0.005
	cfg.Shards, cfg.ShardWorkers = 4, 2
	cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindGray, AtSec: 0.004, DurationSec: 0.01, Count: 2, CostFactor: 2, ErrorRate: 0.3},
		{Kind: chaos.KindCrash, AtSec: 0.012, Count: 1},
		{Kind: chaos.KindPartition, AtSec: 0.03, DurationSec: 0.000002, Frac: 1},
	}}
	tr := Traffic{Concurrency: 96, DurationSec: 0.04, Seed: 5}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.sh.poolMin = 0
	// A horizon on the service-time grid: the replicas that no control,
	// chaos or migration instant knocked off the grid complete on it.
	horizon := cycles.FromSeconds(tr.Duration()) / c.per * c.per
	armRun(t, c, tr, horizon)
	population := uint64(tr.Concurrency)

	var atHorizon uint64
	balance := func(when string) {
		t.Helper()
		var inFlight, staged, awaiting uint64
		for _, ct := range c.containers {
			inFlight += uint64(ct.q.Depth())
		}
		for i := range c.sh.shards {
			staged += uint64(len(c.sh.shards[i].pend))
			awaiting += uint64(len(c.sh.shards[i].done))
		}
		if got := inFlight + staged + awaiting + c.dropped + atHorizon; got != population {
			t.Fatalf("%s: in flight %d + staged %d + awaiting %d + dropped %d + at horizon %d = %d, population %d",
				when, inFlight, staged, awaiting, c.dropped, atHorizon, got, population)
		}
	}
	for {
		balance(fmt.Sprintf("before the barrier at %d", c.sh.now))
		if c.sh.now >= c.horizon {
			for i := range c.sh.shards {
				for _, r := range c.sh.shards[i].done {
					if r.at >= c.horizon {
						atHorizon++
					}
				}
			}
		}
		if !c.sh.step() {
			break
		}
	}
	balance("after the final barrier")

	completed, erred := uint64(0), c.erred
	for i := range c.sh.shards {
		completed += c.sh.shards[i].completed
		erred += c.sh.shards[i].erred
	}
	var qArrived, qCompleted, inFlight uint64
	for _, ct := range c.containers {
		qArrived += ct.q.Arrived
		qCompleted += ct.q.Completed
		inFlight += uint64(ct.q.Depth())
	}
	lost := qArrived - qCompleted - inFlight
	t.Logf("population %d: arrived %d, completed %d, erred %d, lost %d, in flight %d, dropped %d, at horizon %d; %d splits pooled",
		population, c.dispatched, completed, erred, lost, inFlight, c.dropped, atHorizon, c.sh.splits)

	if x := c.chaos; x == nil || x.res.Crashes != 1 || x.res.GrayWindows != 1 {
		t.Fatalf("the chaos plan did not bite: %+v", c.chaos)
	}
	if !slices.ContainsFunc(c.res.ScaleEvents, func(e ScaleEvent) bool { return e.Action == "add-replica" }) {
		t.Fatalf("no replica was added: %+v", c.res.ScaleEvents)
	}
	if lost == 0 || c.dropped == 0 || erred == 0 || atHorizon == 0 || c.sh.splits == 0 {
		t.Fatalf("want lost backlog, door drops, errors, completions at the horizon and pooled splits")
	}
	if qArrived != c.dispatched {
		t.Errorf("queues admitted %d, the cluster counted %d arrivals", qArrived, c.dispatched)
	}
	if qCompleted != completed+erred {
		t.Errorf("queues completed %d, the cluster counted %d completed + %d erred", qCompleted, completed, erred)
	}
	if got := completed + erred + lost + inFlight; c.dispatched != got {
		t.Errorf("arrived %d != completed %d + erred %d + lost %d + in flight %d = %d",
			c.dispatched, completed, erred, lost, inFlight, got)
	}
}

// TestSeriesConservation balances the time series against the
// result's counters on both engines: a plain front door with a gray
// window that errs half its completions, on the single engine and on
// one and four shards. Every series-relevant record, whichever shard
// or serial phase emits it, must reach the series exactly once:
//
//	Σ windows.Erred  = Erred
//	Σ windows.Served = Completed
//	last window's in_flight = Arrived − Completed − Erred − Dropped
func TestSeriesConservation(t *testing.T) {
	cfg, tr := conservationFixture(t)
	cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindGray, AtSec: 0.01, DurationSec: 0.02, Count: 4, CostFactor: 2, ErrorRate: 0.5},
	}}
	for _, shards := range []int{0, 1, 4} {
		cf := cfg
		cf.Shards = shards
		c, err := New(cf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		var erred, served uint64
		for _, w := range res.TimeSeries.Windows {
			erred += w.Erred
			served += w.Served
		}
		if res.Erred == 0 {
			t.Fatalf("Shards=%d: the gray window erred nothing", shards)
		}
		if erred != res.Erred || served != res.Completed {
			t.Errorf("Shards=%d: series errs %d and serves %d, result %d and %d",
				shards, erred, served, res.Erred, res.Completed)
		}
		wins := res.TimeSeries.Windows
		want := int64(res.Arrived) - int64(res.Completed) - int64(res.Erred) - int64(res.Dropped)
		if got := wins[len(wins)-1].InFlight; got != want {
			t.Errorf("Shards=%d: last window in flight %d, want arrived %d − completed %d − erred %d − dropped %d = %d",
				shards, got, res.Arrived, res.Completed, res.Erred, res.Dropped, want)
		}
	}
}

// assertSeriesBalances checks an observed run's time series against its
// result's counters: every completion in the served column, every
// failure in the erred or dropped column, and the last window's
// in-flight gauge equal to what the result leaves in flight. The
// ingress tier counts a request it gives up on as dropped in the
// result but as erred in the series, hence the combined failure sum.
func assertSeriesBalances(t *testing.T, label string, res *Result) {
	t.Helper()
	var served, failed uint64
	for _, w := range res.TimeSeries.Windows {
		served += w.Served
		failed += w.Erred + w.Dropped
	}
	if served != res.Completed || failed != res.Erred+res.Dropped {
		t.Errorf("%s: series serves %d and fails %d, result completes %d and fails %d + %d",
			label, served, failed, res.Completed, res.Erred, res.Dropped)
	}
	wins := res.TimeSeries.Windows
	want := int64(res.Arrived) - int64(res.Completed) - int64(res.Erred) - int64(res.Dropped)
	if got := wins[len(wins)-1].InFlight; got != want {
		t.Errorf("%s: last window in flight %d, want arrived %d − completed %d − erred %d − dropped %d = %d",
			label, got, res.Arrived, res.Completed, res.Erred, res.Dropped, want)
	}
}
