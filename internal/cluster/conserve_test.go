package cluster

import (
	"testing"

	"xcontainers/internal/chaos"
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
	tr := Traffic{Rate: 3_000_000, DurationSec: 0.05, Seed: 3}

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
