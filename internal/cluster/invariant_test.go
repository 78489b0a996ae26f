package cluster

import (
	"fmt"
	"slices"
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
)

// tableRecorder compares the route table with a fresh rebuild at the
// end of every refresh (fleetTable.check). processDone may refresh on
// a pool worker, where a test must not call t.Fatalf, so compareFleetTables
// reports to the recorder instead: its Fatalf unwinds the comparison,
// and check keeps the first mismatch for the test goroutine to read.
type tableRecorder struct {
	checks int
	err    string
}

type tableMismatch string

func (r *tableRecorder) Helper() {}

func (r *tableRecorder) Fatalf(format string, args ...any) {
	panic(tableMismatch(fmt.Sprintf(format, args...)))
}

func (r *tableRecorder) check(t *fleetTable) {
	r.checks++
	if r.err != "" {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			m, ok := p.(tableMismatch)
			if !ok {
				panic(p)
			}
			r.err = fmt.Sprintf("refresh %d, at cycle %d: %s", r.checks, t.c.sh.now, m)
		}
	}()
	compareFleetTables(r, t)
}

// checkNodes checks each node's capacity counters against the
// containers it hosts: usedCores, usedMB and live are the sums over
// the node's containers that are not gone, and the placement index
// keys a live node by usedCores/ReplicaCores and a failed or removed
// one by -1.
func checkNodes(c *Cluster) error {
	type sums struct{ cores, mb, live int }
	got := make([]sums, len(c.nodes))
	for _, ct := range c.containers {
		if ct.gone {
			continue
		}
		s := &got[ct.node.id-1]
		s.cores += ct.cores
		s.mb += ct.memMB
		s.live++
	}
	for i, n := range c.nodes {
		if s := got[i]; n.usedCores != s.cores || n.usedMB != s.mb || n.live != s.live {
			return fmt.Errorf("node %d counts %d cores, %d MB, %d containers; it hosts %d cores, %d MB, %d containers",
				n.id, n.usedCores, n.usedMB, n.live, s.cores, s.mb, s.live)
		}
		slot := int32(n.usedCores / c.cfg.ReplicaCores)
		if n.failed || n.removed {
			slot = -1
		}
		if n.slot != slot {
			return fmt.Errorf("node %d (failed %v, removed %v, %d cores used) sits in placement slot %d, want %d",
				n.id, n.failed, n.removed, n.usedCores, n.slot, slot)
		}
	}
	return nil
}

// checkBusy checks, at the horizon, that no node was busier than its
// cores over its lifetime.
func checkBusy(t *testing.T, c *Cluster) {
	t.Helper()
	for _, n := range c.nodes {
		end := c.horizon
		if n.failed || n.removed {
			end = n.removedAt
		}
		if limit := cycles.Cycles(n.cores) * (end - n.addedAt); n.busy > limit {
			t.Errorf("node %d busy %d cycles, more than %d cores × %d alive", n.id, n.busy, n.cores, end-n.addedAt)
		}
	}
}

// staleFixture is one fault scenario of TestRouteTableNeverStale: a
// change to the base fleet and load, and the scale events that show
// the scenario bit.
type staleFixture struct {
	name  string
	setup func(cfg *Config, tr *Traffic)
	want  []string // scale-event actions the run must record
}

var staleFixtures = []staleFixture{
	{"crash strands a replica", func(cfg *Config, _ *Traffic) {
		// Two full nodes and no autoscale: the crashed node's replicas
		// find no capacity.
		cfg.Nodes, cfg.MaxNodes, cfg.NodeCores, cfg.Replicas = 2, 2, 2, 4
		cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindCrash, AtSec: 0.003, Count: 1}}}
	}, []string{"node-failure", "stranded"}},
	{"partition and heal", func(cfg *Config, _ *Traffic) {
		cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.KindPartition, AtSec: 0.003, DurationSec: 0.0035, Frac: 0.5},
		}}
	}, []string{"chaos-partition", "chaos-heal"}},
	{"eject and readmit", func(cfg *Config, _ *Traffic) {
		cfg.Chaos = &chaos.Plan{
			Probes: &chaos.Probes{IntervalSec: 0.0005, UnhealthyAfter: 2, HealthyAfter: 2},
			Faults: []chaos.Fault{
				{Kind: chaos.KindGray, AtSec: 0.002, DurationSec: 0.003, Count: 2, CostFactor: 2, ErrorRate: 0.9},
			},
		}
	}, []string{"chaos-eject", "chaos-readmit"}},
	{"scale down and up", func(cfg *Config, tr *Traffic) {
		// Two connections on six replicas idle the fleet, so it drains;
		// then a gray window over every replica slows the answers past
		// the SLO.
		tr.Concurrency = 2
		cfg.Autoscale = true
		cfg.MaxNodes = 4
		cfg.SLOp99US = 80
		cfg.Chaos = &chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.KindGray, AtSec: 0.006, DurationSec: 0.004, Version: 1, CostFactor: 40},
		}}
	}, []string{"remove-replica", "add-replica"}},
}

// TestRouteTableNeverStale shows that the barrier's rebuild after a
// chaos or control step is the only membership trigger the route table
// needs: at every barrier, right after the refresh that snapshots it,
// the table must equal a fresh rebuild of the live fleet. It runs each
// fault scenario behind the plain JSQ front door and behind a p2c
// ingress route, on 1 shard, 4 shards, and 4 shards on 2 workers forced
// to pool (so processDone refreshes on the pool). Every barrier also
// checks the nodes' capacity counters (checkNodes).
func TestRouteTableNeverStale(t *testing.T) {
	layouts := []struct {
		name            string
		shards, workers int
		pool            bool
	}{{"1 shard", 1, 1, false}, {"4 shards", 4, 1, false}, {"4 shards pooled", 4, 2, true}}
	for _, fx := range staleFixtures {
		for _, door := range []string{"jsq", "ingress p2c"} {
			for _, l := range layouts {
				t.Run(fx.name+"/"+door+"/"+l.name, func(t *testing.T) {
					cfg := testConfig(t, runtimes.XContainer)
					cfg.Nodes, cfg.MaxNodes, cfg.NodeCores, cfg.Replicas = 3, 3, 4, 6
					cfg.intervalSec = 0.002
					cfg.EpochUS = 40
					cfg.Shards, cfg.ShardWorkers = l.shards, l.workers
					if door != "jsq" {
						cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{LB: ingress.PowerOfTwo}}
					}
					tr := Traffic{Concurrency: 12, DurationSec: 0.012, Seed: 7}
					fx.setup(&cfg, &tr)
					c, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if l.pool {
						c.sh.poolMin = 0
					}
					var rec tableRecorder
					c.sh.table.check = rec.check
					armRun(t, c, tr, cycles.FromSeconds(tr.Duration()))
					for c.sh.step() {
						if err := checkNodes(c); err != nil {
							t.Fatalf("after the barrier at cycle %d: %v", c.sh.now, err)
						}
					}
					if err := checkNodes(c); err != nil {
						t.Fatalf("after the final barrier: %v", err)
					}
					if rec.err != "" {
						t.Fatal(rec.err)
					}
					if rec.checks == 0 {
						t.Fatal("no refresh was checked")
					}
					for _, a := range fx.want {
						if !slices.ContainsFunc(c.res.ScaleEvents, func(e ScaleEvent) bool { return e.Action == a }) {
							t.Fatalf("no %q event: %+v", a, c.res.ScaleEvents)
						}
					}
					if l.pool && c.sh.pooled == 0 {
						t.Fatal("no epoch ran on the pool")
					}
					if l.pool && door == "jsq" && c.sh.splits == 0 {
						t.Fatal("no barrier refreshed the table on the pool")
					}
					checkBusy(t, c)
				})
			}
		}
	}
}

// TestNodeCapacityInvariants checks the nodes' capacity counters
// (checkNodes) at every barrier of TestShardedConservation's fleet, and
// one cycle after every control tick of a single-engine fleet that
// loses a node and scales down; at the horizon, no node may have been
// busier than its cores over its lifetime (checkBusy).
func TestNodeCapacityInvariants(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		cfg, tr := conservationFixture(t)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		armRun(t, c, tr, cycles.FromSeconds(tr.Duration()))
		for c.sh.step() {
			if err := checkNodes(c); err != nil {
				t.Fatalf("after the barrier at cycle %d: %v", c.sh.now, err)
			}
		}
		if err := checkNodes(c); err != nil {
			t.Fatalf("after the final barrier: %v", err)
		}
		if len(c.res.Migrations) == 0 {
			t.Fatal("no container migrated")
		}
		checkBusy(t, c)
	})
	t.Run("single engine", func(t *testing.T) {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 4, 6, 8
		cfg.Autoscale = true
		cfg.intervalSec = 0.005
		cfg.FailNodeAtSec = 0.012
		tr := Traffic{Rate: 200_000, DurationSec: 0.05, Seed: 3}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ticks := 0
		interval := cycles.FromSeconds(cfg.intervalSec)
		for at := interval; at <= cycles.FromSeconds(tr.Duration()); at += interval {
			c.eng.At(at+1, func() {
				ticks++
				if err := checkNodes(c); err != nil {
					t.Fatalf("after the control tick at cycle %d: %v", at, err)
				}
			})
		}
		if _, err := c.Run(tr); err != nil {
			t.Fatal(err)
		}
		if err := checkNodes(c); err != nil {
			t.Fatalf("at the horizon: %v", err)
		}
		for _, a := range []string{"node-failure", "remove-replica"} {
			if !slices.ContainsFunc(c.res.ScaleEvents, func(e ScaleEvent) bool { return e.Action == a }) {
				t.Fatalf("no %q event: %+v", a, c.res.ScaleEvents)
			}
		}
		if ticks == 0 || len(c.res.Migrations) == 0 {
			t.Fatalf("%d ticks checked, %d migrations", ticks, len(c.res.Migrations))
		}
		checkBusy(t, c)
	})
}
