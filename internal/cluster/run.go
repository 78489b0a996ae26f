package cluster

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// Run executes one traffic experiment over the fleet and returns its
// statistics. A Cluster is single-shot: build a fresh one per run.
func (c *Cluster) Run(t Traffic) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if c.ran {
		return nil, fmt.Errorf("cluster: Run may be called once per Cluster")
	}
	c.ran = true

	dur := t.Duration()
	c.horizon = cycles.FromSeconds(dur)
	c.interval = cycles.FromSeconds(c.cfg.intervalSec)
	if c.interval == 0 {
		c.interval = 1
	}
	if c.graph != nil {
		// Ingress routing randomness (p2c sampling) gets its own
		// seed-derived stream, distinct from arrivals and failures.
		c.graph.Reseed(t.Seed ^ 0x16c4e5500)
	}
	if err := c.armChaos(t.Seed); err != nil {
		return nil, err
	}
	if err := c.armDeploy(); err != nil {
		return nil, err
	}
	c.notePeaks()
	if c.ob != nil {
		c.ob.arm(c.horizon, c.sh)
	}

	c.closedLoop = !t.Open()
	conc := t.Population(c.servers * len(c.containers))

	if c.sh != nil {
		return c.runSharded(t, dur, conc)
	}

	// The first tick fires at the interval, or at the horizon when the
	// run is shorter — every run gets at least one control evaluation.
	c.eng.At(min(c.interval, c.horizon), c.tick)
	if c.chaos != nil {
		c.chaos.armSingle()
	}

	if t.Open() {
		c.eng.DriveArrivals(t.Arrivals(), sim.NewRand(t.Seed), c.horizon, c.dispatch)
	} else {
		// Seed the population directly at time zero: dispatches before
		// the first Step see the same empty-fleet state as zero-time
		// events did, without a closure per connection.
		for i := 0; i < conc; i++ {
			c.dispatch(uint64(i + 1))
		}
	}

	c.eng.Run(c.horizon)
	return c.assemble(t, dur, conc), nil
}

// runSharded executes the run on the epoch-sharded engine: seed the
// population or arm the central arrival stream, then drive the barrier
// loop to the horizon.
func (c *Cluster) runSharded(t Traffic, dur float64, conc int) (*Result, error) {
	c.sh.start(t, conc)
	for c.sh.step() {
	}
	c.sh.stop()

	if c.sh.fi == nil {
		// Plain front door: root latencies were observed shard-side.
		// Quantiles and the max merge exactly (integer bucket counts);
		// the mean comes from the exact integer cycle sum, because the
		// merged histogram's float sum depends on the shard partition.
		var latSum, latN uint64
		for i := range c.sh.shards {
			ss := &c.sh.shards[i]
			c.fleet.Merge(&ss.fleet)
			latSum += ss.latSum
			latN += ss.latN
			c.completed += ss.completed
		}
		res := c.assemble(t, dur, conc)
		if latN > 0 {
			res.LatencyUS = float64(latSum) / float64(latN) / (cycles.Hz / 1e6)
		}
		return res, nil
	}
	// Behind the ingress, root completions were observed centrally at
	// barriers in canonical order — c.fleet and c.completed are already
	// exact; only the route/service sections come from the flyweight.
	res := c.assemble(t, dur, conc)
	res.Routes = c.sh.fi.routeStats()
	res.IngressServices = c.sh.fi.serviceStats(c.horizon)
	return res, nil
}

// assemble reads the fleet's statistics into a Result.
func (c *Cluster) assemble(t Traffic, dur float64, conc int) *Result {
	res := &c.res
	res.Policy = c.cfg.Policy.String()
	res.Seed = t.Seed
	res.DurationSec = dur
	res.PerRequest = c.per
	res.SLOp99US = c.cfg.SLOp99US

	res.OfferedRate = t.OfferedRate()
	res.Population = conc

	res.Arrived = c.dispatched
	res.Completed = c.completed
	res.Dropped = c.dropped
	res.Erred = c.erred
	if x := c.chaos; x != nil && !x.legacy {
		res.Chaos = &x.res
	}
	if d := c.dep; d != nil {
		res.Deploy = &d.res
	}
	res.Throughput = float64(c.completed) / dur
	res.LatencyUS = c.fleet.MeanMicros()
	res.P50US = c.fleet.Quantile(0.50).Micros()
	res.P95US = c.fleet.Quantile(0.95).Micros()
	res.P99US = c.fleet.Quantile(0.99).Micros()
	res.MaxUS = c.fleet.Max().Micros()

	for _, ct := range c.containers {
		res.MeanQueueDepth += ct.q.MeanDepth(c.horizon)
		res.MaxQueueDepth = max(res.MaxQueueDepth, ct.q.MaxDepth())
	}

	var busyTotal, capTotal float64
	for _, n := range c.nodes {
		end := c.horizon
		if n.failed || n.removed {
			end = n.removedAt
		}
		aliveCycles := float64(end - n.addedAt)
		capacity := float64(n.cores) * aliveCycles
		util := 0.0
		if capacity > 0 {
			util = min(float64(n.busy)/capacity, 1)
		}
		busyTotal += float64(n.busy)
		capTotal += capacity
		res.Nodes = append(res.Nodes, NodeStats{
			ID:            n.id,
			Containers:    n.live,
			CoresUsed:     n.usedCores,
			Utilization:   util,
			MigrationsIn:  n.migrIn,
			MigrationsOut: n.migrOut,
			Failed:        n.failed,
			Removed:       n.removed,
			AddedSec:      n.addedAt.Seconds(),
			RemovedSec:    n.removedAt.Seconds(),
		})
	}
	if capTotal > 0 {
		res.Utilization = min(busyTotal/capTotal, 1)
	}
	if c.graph != nil {
		res.Routes = c.graph.RouteStats()
		res.IngressServices = c.graph.ServiceStats(c.horizon)
	}
	c.obFinish()
	return res
}
