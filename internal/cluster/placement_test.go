package cluster

import (
	"testing"

	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// scanPick is the O(nodes) scan the placement index replaced, kept as
// its oracle: every live node with room for one more container, ranked
// by the policy's comparator, the lower id breaking ties.
func scanPick(c *Cluster) *node {
	backlog := make([]int, len(c.nodes))
	for _, ct := range c.containers {
		if !ct.gone {
			backlog[ct.node.id-1] += ct.q.Depth()
		}
	}
	better := func(a, b *node) bool {
		switch c.cfg.Policy {
		case BinPack:
			if a.usedCores != b.usedCores {
				return a.usedCores > b.usedCores
			}
		case Spread:
			if a.usedCores != b.usedCores {
				return a.usedCores < b.usedCores
			}
		case LatencyAware:
			if da, db := backlog[a.id-1], backlog[b.id-1]; da != db {
				return da < db
			}
			if a.usedCores != b.usedCores {
				return a.usedCores < b.usedCores
			}
		}
		return a.id < b.id
	}
	var best *node
	for _, n := range c.nodes {
		fits := !n.failed && !n.removed &&
			n.cores-n.usedCores >= c.cfg.ReplicaCores &&
			n.memMB-n.usedMB >= c.memPer
		if fits && (best == nil || better(n, best)) {
			best = n
		}
	}
	return best
}

func nodeID(n *node) int {
	if n == nil {
		return 0
	}
	return n.id
}

// checkPlacementIndex compares the index with a recount from the nodes
// and checks the uniformity the buckets rely on: a node's memory in use
// is its replica count times memPer.
func checkPlacementIndex(t *testing.T, c *Cluster) {
	t.Helper()
	p := &c.place
	alive := 0
	counts := make([]int32, len(p.sets))
	for _, n := range c.nodes {
		k := n.usedCores / c.cfg.ReplicaCores
		if n.usedCores%c.cfg.ReplicaCores != 0 || n.usedMB != k*c.memPer {
			t.Fatalf("node %d: usedCores %d, usedMB %d with %d-core, %d MB replicas",
				n.id, n.usedCores, n.usedMB, c.cfg.ReplicaCores, c.memPer)
		}
		i := int32(n.id - 1)
		for s := range p.sets {
			words := p.sets[s].words
			in := int(i>>6) < len(words) && words[i>>6]&(1<<(i&63)) != 0
			if in != (int(n.slot) == s) {
				t.Fatalf("node %d (slot %d) membership in set %d is %v", n.id, n.slot, s, in)
			}
		}
		if n.failed || n.removed {
			if n.slot != -1 {
				t.Fatalf("node %d left the fleet but sits in set %d", n.id, n.slot)
			}
			continue
		}
		alive++
		if int(n.slot) != k {
			t.Fatalf("node %d holds %d replicas but sits in set %d", n.id, k, n.slot)
		}
		counts[k]++
	}
	if p.live != alive {
		t.Fatalf("index counts %d live nodes, the fleet has %d", p.live, alive)
	}
	for k := range p.sets {
		if p.sets[k].n != counts[k] {
			t.Fatalf("set %d counts %d members, holds %d", k, p.sets[k].n, counts[k])
		}
	}
}

// checkPlacement decodes a byte program into a small fleet and a
// sequence of place, add-node, fail-node, drain, migrate and arrive
// steps, and after each step checks the index against a recount and
// pickNode against the scan. Header bytes: policy, node cores, replica
// cores, memory slots (0 leaves cores binding), initial nodes,
// autoscale.
func checkPlacement(t *testing.T, data []byte) {
	if len(data) < 6 {
		return
	}
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Policy = Policy(data[0] % 3)
	cfg.NodeCores = 1 + int(data[1]%6)
	cfg.ReplicaCores = 1 + int(data[2])%cfg.NodeCores
	const memPer = 128 // memcached's footprint under XContainer
	cfg.NodeMemMB = 1 << 20
	if slots := int(data[3] % 4); slots > 0 {
		// Room for slots replicas by memory, plus slack below one more.
		cfg.NodeMemMB = slots*memPer + int(data[3]/4)%memPer
	}
	cfg.Nodes = 1 + int(data[4]%4)
	cfg.Replicas = 1
	cfg.MaxNodes = 8
	cfg.Autoscale = data[5]&1 != 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.memPer != memPer {
		t.Fatalf("memPer = %d, the program decoding assumes %d", c.memPer, memPer)
	}
	rng := sim.NewRand(uint64(data[5]))
	pickLive := func(b byte) *container {
		var live []*container
		for _, ct := range c.containers {
			if !ct.gone {
				live = append(live, ct)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return live[int(b)%len(live)]
	}
	checkPlacementIndex(t, c)
	for pc := 6; pc+1 < len(data); pc += 2 {
		op, arg := data[pc]%6, data[pc+1]
		switch op {
		case 0: // place
			if n := c.pickNode(); n != nil {
				c.addContainer(n)
			}
		case 1: // add-node
			if len(c.nodes) < 160 { // three bitset words
				c.addNode()
			}
		case 2: // fail-node: the victim's containers are re-picked
			c.failOneNode(rng)
		case 3: // drain: retire a container (an empty node may go)
			if ct := pickLive(arg); ct != nil {
				ct.draining = true
				c.retire(ct)
			}
		case 4: // migrate to a node with room
			ct := pickLive(arg)
			if ct == nil {
				break
			}
			var room []*node
			for _, n := range c.nodes {
				if c.place.fits(n) && n != ct.node {
					room = append(room, n)
				}
			}
			if len(room) > 0 {
				c.migrate(ct, room[int(arg/8)%len(room)], "rebalance")
			}
		case 5: // arrive: the run is under way, and latency-aware picks
			// scan the backlogs
			c.ran = true
			if ct := pickLive(arg); ct != nil {
				ct.q.Arrive(sim.Job{ID: uint64(pc), Cost: c.per})
			}
		}
		checkPlacementIndex(t, c)
		if got, want := c.pickNode(), scanPick(c); got != want {
			t.Fatalf("step %d (op %d): %v pick = node %d, scan = node %d",
				pc, op, cfg.Policy, nodeID(got), nodeID(want))
		}
	}
}

// placementSeeds cover each policy with cores and memory binding, node
// failures that re-pick, strand, or boot a node for containers, a drain that removes a
// surplus node, migrations, and latency-aware picks over a backlog.
var placementSeeds = map[string][]byte{
	"binpack cores":          {0, 3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 2, 0, 0},
	"spread 2-core replicas": {1, 3, 1, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0},
	"binpack memory":         {0, 5, 0, 10, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
	"spread memory":          {1, 5, 0, 7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 0, 0},
	"fail and re-pick":       {1, 3, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0},
	"fail strands":           {0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0},
	"fail adds a node":       {0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 2, 0, 2, 0},
	"drain removes node":     {1, 3, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0, 0, 0},
	"migrate both ways":      {1, 4, 1, 0, 2, 0, 0, 0, 0, 0, 4, 0, 4, 9, 4, 17, 0, 0},
	"latency backlog":        {2, 3, 0, 0, 3, 0, 0, 0, 0, 0, 5, 0, 5, 0, 0, 0, 0, 0, 5, 1, 0, 0, 1, 0, 0, 0},
	"latency initial fleet":  {2, 2, 0, 3, 2, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
}

func TestPlacementSeeds(t *testing.T) {
	for name, data := range placementSeeds {
		t.Run(name, func(t *testing.T) { checkPlacement(t, data) })
	}
}

// FuzzPlacement checks the placement index against the node scan it
// replaced, over arbitrary place, fail-node, drain, migrate and
// add-node sequences under every policy and core/memory mix.
func FuzzPlacement(f *testing.F) {
	for _, data := range placementSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlacement(t, data[:min(len(data), 512)])
	})
}

// TestPlacementMatchesScanAtScale builds mid-sized fleets under each
// policy with the index and replays every pick against the scan.
func TestPlacementMatchesScanAtScale(t *testing.T) {
	for _, pol := range []Policy{BinPack, Spread, LatencyAware} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := testConfig(t, runtimes.XContainer)
			cfg.Policy, cfg.Nodes, cfg.MaxNodes, cfg.Replicas = pol, 300, 300, 1
			cfg.NodeCores, cfg.NodeMemMB = 8, 3*128+64 // memory binds at 3 replicas
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				got, want := c.pickNode(), scanPick(c)
				if got != want {
					t.Fatalf("pick %d: node %d, scan node %d", i, nodeID(got), nodeID(want))
				}
				if got == nil {
					break
				}
				c.addContainer(got)
			}
			checkPlacementIndex(t, c)
			if len(c.containers) != 900 {
				t.Fatalf("placed %d replicas, want 300 nodes × 3", len(c.containers))
			}
		})
	}
}
