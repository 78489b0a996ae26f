package cluster

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// The sharded serve path inherits the kernel's zero-alloc budget:
// replicas are flyweight handles, routing works on the preallocated
// epoch table, barrier folding reuses histograms and buffers, and
// closed-loop re-issue recycles jobs through the canonical outbox — so
// steady-state epochs (thousands of requests each) cost the garbage
// collector nothing. This is the ISSUE's acceptance criterion: without
// it, a 10k-node fleet's serve path would allocate per request and
// planet-scale runs would be GC-bound.
func TestShardedServePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.Replicas = 4, 8
	cfg.Shards = 2
	cfg.ShardWorkers = 1 // inline: channel handoffs are the pool's, not the model's
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Open the run by hand so epochs can be stepped under the alloc
	// counter (Run drives the same loop to the horizon in one call).
	c.ran = true
	c.horizon = cycles.FromSeconds(1000) // far away: steps never hit it
	c.interval = cycles.FromSeconds(cfg.IntervalSec)
	c.closedLoop = true
	c.rng = sim.NewRand(7)
	conc := 2 * c.servers * len(c.containers)
	c.sh.start(Traffic{Seed: 7}, conc)

	for i := 0; i < 2000; i++ { // warm-up: rings, arenas, and histograms grow to capacity
		c.sh.step()
	}
	if c.completed == 0 && c.sh.shards[0].completed == 0 {
		t.Fatal("warm-up completed nothing")
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 20; i++ {
			c.sh.step()
		}
	}); avg != 0 {
		t.Fatalf("sharded serve path allocates: %.2f allocs per 20-epoch batch, want 0", avg)
	}
}
