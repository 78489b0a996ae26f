package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"xcontainers/internal/chaos"
	"xcontainers/internal/runtimes"
)

// The shard layout deals replicas to shards in blocks of consecutive
// ids. The invariance fixtures elsewhere hold one to four replicas, so
// at the shard counts they compare the block is 1 or 2, and none of
// them runs a layout against round-robin. The fleet here is big enough
// that the default block is above 1 at every shard count tried.

// layoutFleet is a 128-replica fleet under a fault plan that crashes a
// node, slows and errs a few replicas (their completions then leave the
// service-time lane for the heap), partitions a quarter of the fleet
// and restarts two replicas, with health probes throughout.
func layoutFleet(t *testing.T) Config {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 32, 32, 128
	cfg.Chaos = &chaos.Plan{
		Probes: &chaos.Probes{IntervalSec: 0.0005, TimeoutUS: 200},
		Faults: []chaos.Fault{
			{Kind: chaos.KindCrash, AtSec: 0.001},
			{Kind: chaos.KindGray, AtSec: 0.0015, DurationSec: 0.002, Count: 6, CostFactor: 4, ErrorRate: 0.3},
			{Kind: chaos.KindPartition, AtSec: 0.002, DurationSec: 0.001, Frac: 0.25},
			{Kind: chaos.KindRestart, AtSec: 0.0025, Count: 2, RecoverySec: 0.0005},
		},
	}
	return cfg
}

// runLayout runs cfg with every epoch pooled and returns the report,
// its bytes and the layout block the run used.
func runLayout(t *testing.T, cfg Config, tr Traffic) (*Result, []byte, int) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.sh.poolMin = 0
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	assertPooled(t, c)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return res, b, c.sh.block
}

// TestShardLayoutInvariance is the layout's oracle: the blocked deal
// at 1, 2 and 8 shards and the round-robin deal at 8 shards must give
// byte-identical Results, closed and open loop. A replica's state is
// confined to its shard whichever shard that is, so the layout, like
// the shard count, is a wall-clock knob and never a model knob.
func TestShardLayoutInvariance(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Traffic
	}{
		{"closed", Traffic{DurationSec: 0.004, Seed: 5}},
		{"open", Traffic{Rate: 20_000_000, DurationSec: 0.004, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, run := range []struct {
				shards, block int // block 0: the default rule
			}{{1, 0}, {2, 0}, {8, 0}, {8, 1}} {
				cfg := layoutFleet(t)
				cfg.Shards, cfg.layoutBlock = run.shards, run.block
				res, got, block := runLayout(t, cfg, tc.tr)
				if run.block == 0 && block < 2 {
					t.Fatalf("Shards=%d: default block %d; the fleet must be big enough for blocks", run.shards, block)
				}
				if want == nil {
					// The plan must reach every path it claims to.
					if ch := res.Chaos; ch.Crashes != 1 || ch.GrayWindows != 1 || ch.Partitions == 0 ||
						ch.Restarts != 2 || ch.ProbeFailures == 0 || res.Erred == 0 {
						t.Fatalf("fault plan did not bite: %+v, %d erred", *ch, res.Erred)
					}
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("Shards=%d block=%d diverged from Shards=1:\n%s", run.shards, block, firstDiff(want, got))
				}
			}
		})
	}
}

// TestShardLayoutBlocks pins the deal: the block is the configured
// fleet over the shard count, clamped to [1, maxLayoutBlock]; blocks go
// to shards round-robin; and fleets as small as the shard count still
// put a replica on every shard.
func TestShardLayoutBlocks(t *testing.T) {
	for _, tc := range []struct {
		replicas, shards, block int
	}{
		{1, 8, 1}, {4, 8, 1}, {8, 8, 1}, {32, 8, 4}, {20, 3, 6},
		{128, 2, 64}, {10_000, 8, 64},
	} {
		cfg := testConfig(t, runtimes.XContainer)
		cfg.Nodes, cfg.MaxNodes, cfg.Replicas, cfg.Shards = 1, 1, tc.replicas, tc.shards
		s := newShardRun(&Cluster{cfg: cfg}, tc.shards)
		if s.block != tc.block {
			t.Fatalf("%d replicas on %d shards: block %d, want %d", tc.replicas, tc.shards, s.block, tc.block)
		}
		used := make([]int, tc.shards)
		for rep := 0; rep < tc.replicas; rep++ {
			sh := int(s.shardOf(rep))
			if want := rep / tc.block % tc.shards; sh != want {
				t.Fatalf("%d replicas on %d shards: replica %d on shard %d, want %d", tc.replicas, tc.shards, rep, sh, want)
			}
			used[sh]++
		}
		for i, n := range used {
			if n == 0 && tc.replicas >= tc.shards {
				t.Fatalf("%d replicas on %d shards: shard %d got none", tc.replicas, tc.shards, i)
			}
		}
	}
}

// TestShardLanesPooled runs the service-time lanes on engines that two
// workers drive in parallel: a closed loop over a fleet whose first
// shard owns two blocks, every epoch pooled, must give the bytes of
// the inline run. Under -race this is the check that lanes, declared
// per engine, share nothing across shards.
func TestShardLanesPooled(t *testing.T) {
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 5, 5, 20
	cfg.Shards = 3 // block 6: shard 0 owns replicas 0-5 and 18-19
	tr := Traffic{DurationSec: 0.002, Seed: 3}

	var want []byte
	for _, w := range []int{1, 2} {
		cf := cfg
		cf.ShardWorkers = w
		_, got, block := runLayout(t, cf, tr)
		if block != 6 {
			t.Fatalf("block %d, want 6", block)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("ShardWorkers=%d diverged from the inline run:\n%s", w, firstDiff(want, got))
		}
	}
}
