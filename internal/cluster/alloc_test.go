package cluster

import (
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
)

// The sharded serve path inherits the kernel's zero-alloc budget:
// replicas are flyweight handles, routing works on the preallocated
// epoch table, barrier folding reuses histograms and buffers, and
// closed-loop re-issue recycles jobs through the canonical outbox — so
// steady-state epochs (thousands of requests each) cost the garbage
// collector nothing. This is the ISSUE's acceptance criterion: without
// it, a 10k-node fleet's serve path would allocate per request and
// planet-scale runs would be GC-bound. The barrier's own bookkeeping —
// the route table's touched lists, the drain list, the worker pool's
// wake-ups and shard claims, the closed loop's two re-issue streams
// and their id buffer — is held to the same budget, inline and with a
// helper worker, on the plain front door and behind the ingress.
// The open-loop JSQ cases are canary-rollout in miniature, where each
// barrier moves the epoch's touched replicas between the JSQ sets.
// The one allocation the budget admits is model growth: a shard
// engine's event heap reallocates when its high-water mark of
// heap-ordered pending events rises, which the ingress case's gray
// replicas do once in its measured epochs.
func TestShardedServePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	closed := func(t *testing.T) Config {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Nodes, cfg.Replicas = 4, 8
		cfg.Shards = 2
		return cfg
	}
	openJSQ := func(t *testing.T) Config {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 8, 8, 32
		cfg.Shards = 8
		return cfg
	}
	// ingressFleet is fleet-ingress in miniature: p2c behind the L7
	// ingress with keep-alive, timeouts, retries, a breaker and a shed
	// valve, a gray window and periodic health probes.
	ingressFleet := func(t *testing.T) Config {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Nodes, cfg.Replicas = 4, 16
		cfg.Shards = 4
		cfg.Ingress = &IngressConfig{Route: ingress.RoutePolicy{
			LB: ingress.PowerOfTwo, KeepAlive: true, KeepAliveReqs: 100,
			Timeout: cycles.FromMicros(200), Retries: 2,
			BreakerFailureRate: 0.5, ShedDepth: 64,
		}}
		plan, err := chaos.Parse("gray@0.001+1000,count=4,cost=8;probes,interval=0.0005")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = plan
		return cfg
	}
	for _, tc := range []struct {
		name    string
		cfg     func(*testing.T) Config
		workers int
		tr      Traffic
	}{
		{"closed-loop/inline", closed, 1, Traffic{Seed: 7}},
		{"closed-loop/2-workers", closed, 2, Traffic{Seed: 7}},
		{"open-loop-jsq/inline", openJSQ, 1, Traffic{Rate: 400_000, Seed: 7}},
		{"open-loop-jsq/2-workers", openJSQ, 2, Traffic{Rate: 400_000, Seed: 7}},
		{"ingress-open-loop/2-workers", ingressFleet, 2, Traffic{Rate: 400_000, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			cfg.ShardWorkers = tc.workers
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.sh.poolMin = 0 // pool every epoch the 2-worker cases run
			openRun(t, c, tc.tr)
			for i := 0; i < 2000; i++ { // warm-up: rings, arenas, and histograms grow to capacity
				c.sh.step()
			}
			if c.EventsFired() == 0 {
				t.Fatal("warm-up fired no events")
			}
			if x := c.chaos; x != nil && (x.res.ProbesSent == 0 || x.res.GrayWindows != 1) {
				t.Fatalf("warm-up did not reach the probe sweeps and the gray window: %+v", x.res)
			}
			caps := make([]int, len(c.sh.shards)) // each shard's event heap capacity
			n := testing.AllocsPerRun(1, func() {
				for i := range caps {
					caps[i] = c.sh.shards[i].eng.HeapCap()
				}
				for i := 0; i < 2000; i++ {
					c.sh.step()
				}
			})
			want := 0
			for i := range caps {
				want += heapGrowths(caps[i], c.sh.shards[i].eng.HeapCap())
			}
			if n != float64(want) {
				t.Fatalf("sharded serve path allocates %v times in 2000 steady-state epochs, want %d (event heap growth from capacities %v)",
					n, want, caps)
			}
			assertPooled(t, c)
			if c.closedLoop && tc.workers > 1 && c.sh.splits == 0 {
				t.Fatal("no barrier ran its re-issue streams on the pool")
			}
		})
	}
}

// heapGrowths counts the reallocations append makes growing a full
// event heap, one push at a time, from capacity from to capacity to:
// what a shard engine's rising high-water mark of heap-ordered pending
// events costs. A heap key is 16 bytes.
func heapGrowths(from, to int) int {
	keys, n := make([][2]uint64, from), 0
	for cap(keys) < to {
		keys = append(keys[:cap(keys)], [2]uint64{})
		n++
	}
	return n
}

// openRun arms c the way Run does and starts the sharded run, so that
// epochs can be stepped under the alloc counter (Run drives the same
// loop to the horizon in one call). The horizon is far away: steps
// never hit it.
func openRun(t testing.TB, c *Cluster, tr Traffic) {
	t.Helper()
	armRun(t, c, tr, cycles.FromSeconds(1000))
}

// armRun is openRun with the horizon given: it arms chaos and
// observability as Run does, seeds the population or the arrival
// stream, and leaves the barrier loop to the caller.
func armRun(t testing.TB, c *Cluster, tr Traffic, horizon cycles.Cycles) {
	t.Helper()
	c.ran = true
	c.horizon = horizon
	c.interval = cycles.FromSeconds(c.cfg.intervalSec)
	if err := c.armChaos(tr.Seed); err != nil {
		t.Fatal(err)
	}
	if c.ob != nil {
		c.ob.arm(c.horizon, c.sh)
	}
	c.closedLoop = !tr.Open()
	c.sh.start(tr, tr.Population(c.servers*len(c.containers)))
	t.Cleanup(c.sh.stop)
}
