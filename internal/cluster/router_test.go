package cluster

import (
	"slices"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// checkFleetTable drives a sharded fleet's route table through a byte
// program and, at every snapshot, compares it with a table rebuilt from
// scratch over the same queues. The header picks the balancer (JSQ,
// p2c, rr), the shard count in [1, 4] and the replica count in
// [2, 33]; each following byte pair is one operation:
//
//	op%8 0-2  pick; arg bit 0 delivers the request to the replica's queue
//	op%8 3    pickOther avoiding replica arg, delivered
//	op%8 4    advance every shard engine by (1 + arg%8) quarter services
//	op%8 5    flip replica arg's ejection, then rebuild, as the barrier
//	          after a chaos step does
//	op%8 6    refresh (the barrier snapshot), then compare
//	op%8 7    full rebuild, then compare; arg >= 0x80 first adds a replica,
//	          as a control step's scale-up does before its rebuild
//
// A final refresh and comparison close every program.
func checkFleetTable(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	lbs := []ingress.Policy{ingress.JSQ, ingress.PowerOfTwo, ingress.RoundRobin}
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.NodeCores, cfg.NodeMemMB = 1, 1, 64, 1<<16
	cfg.Shards = 1 + int(data[1])%4
	cfg.Replicas = 2 + int(data[2])%32
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := c.sh.table
	a.lb = lbs[int(data[0])%len(lbs)]
	a.rng = sim.NewRand(uint64(data[0]))
	a.rebuild()

	var now cycles.Cycles
	var id uint64
	deliver := func(rep int) {
		if rep < 0 {
			return
		}
		id++
		c.containers[rep].q.Arrive(sim.Job{ID: id, Cost: c.per, Born: now, Stage: rep})
	}
	for k := 3; k+1 < len(data); k += 2 {
		op, arg := data[k]%8, data[k+1]
		n := len(c.containers)
		switch op {
		case 0, 1, 2:
			rep := a.pick()
			if arg&1 != 0 {
				deliver(rep)
			}
		case 3:
			deliver(a.pickOther(int(arg) % n))
		case 4:
			now += (1 + cycles.Cycles(arg%8)) * c.per / 4
			for _, e := range c.sh.engines {
				e.Run(now)
			}
		case 5:
			ct := c.containers[int(arg)%n]
			ct.ejected = !ct.ejected
			a.rebuild()
		case 6:
			a.refresh()
			compareFleetTables(t, a)
		case 7:
			if arg >= 0x80 && n < 48 {
				c.addContainer(c.nodes[0])
			}
			a.rebuild()
			compareFleetTables(t, a)
		}
		if sum := routableSum(a); a.sum != sum {
			t.Fatalf("op %d: running sum %d, Σ depth over ups %d", k, a.sum, sum)
		}
	}
	a.refresh()
	compareFleetTables(t, a)
}

func routableSum(t *fleetTable) int {
	sum := 0
	for _, u := range t.ups {
		sum += int(t.depth[u])
	}
	return sum
}

// fataler is the part of testing.TB the table comparison reports
// through; TestRouteTableNeverStale passes a recorder instead.
type fataler interface {
	Helper()
	Fatalf(format string, args ...any)
}

// compareFleetTables checks a freshly snapshotted table against a full
// rebuild of the same fleet: the snapshot fields, every JSQ bucket's
// pick order, and the picks both tables make from here on.
func compareFleetTables(t fataler, a *fleetTable) {
	t.Helper()
	b := newFleetTable(a.c, a.lb)
	b.rebuild()
	if !slices.Equal(a.depth, b.depth) {
		t.Fatalf("depth %v, rebuild %v", a.depth, b.depth)
	}
	if !slices.Equal(a.ups, b.ups) {
		t.Fatalf("ups %v, rebuild %v", a.ups, b.ups)
	}
	if !slices.Equal(a.pos, b.pos) {
		t.Fatalf("pos %v, rebuild %v", a.pos, b.pos)
	}
	if a.sum != b.sum || a.sum != routableSum(a) {
		t.Fatalf("sum %d, rebuild %d, Σ depth over ups %d", a.sum, b.sum, routableSum(a))
	}
	if a.lb != ingress.JSQ {
		return // only JSQ keeps buckets
	}
	if a.cur != b.cur {
		t.Fatalf("bucket cursor %d, rebuild %d", a.cur, b.cur)
	}
	checkSets(t, a)
	for k := range a.head {
		if oa, ob := bucketOrder(a, k), bucketOrder(b, k); !slices.Equal(oa, ob) {
			t.Fatalf("bucket %d picks %v, rebuild %v", k, oa, ob)
		}
		if fa, fb := bucketFIFO(a, k), bucketFIFO(b, k); !slices.Equal(fa, fb) || a.tail[k] != b.tail[k] {
			t.Fatalf("bucket %d FIFO %v tail %d, rebuild %v tail %d", k, fa, a.tail[k], fb, b.tail[k])
		}
	}
	n := 2 * len(a.c.containers)
	if pa, pb := drainJSQ(cloneFleetTable(a), n), drainJSQ(b, n); !slices.Equal(pa, pb) {
		t.Fatalf("refreshed table picks %v, rebuild %v", pa, pb)
	}
}

// checkSets checks the JSQ sets' bookkeeping: each set's member count
// and lowest-word hint, and that in names the set holding each replica.
func checkSets(t fataler, a *fleetTable) {
	t.Helper()
	held := 0
	for k := range a.sets {
		s := &a.sets[k]
		m := setMembers(a, k)
		if len(m) != int(s.n) {
			t.Fatalf("bucket %d set holds %v, counts %d", k, m, s.n)
		}
		if len(m) > 0 && m[0]>>6 < s.lo {
			t.Fatalf("bucket %d set holds %d below its hint, word %d", k, m[0], s.lo)
		}
		for _, r := range m {
			if a.in[r] != int32(k) {
				t.Fatalf("bucket %d set holds %d, in says %d", k, r, a.in[r])
			}
		}
		held += len(m)
	}
	named := 0
	for r, k := range a.in {
		if k < 0 {
			continue
		}
		named++
		if a.pos[r] < 0 {
			t.Fatalf("unroutable replica %d in bucket %d's set", r, k)
		}
	}
	if named != held {
		t.Fatalf("in names %d replicas, the sets hold %d", named, held)
	}
}

// setMembers lists bucket k's snapshot set in id order.
func setMembers(t *fleetTable, k int) []int32 {
	var out []int32
	for w, word := range t.sets[k].words {
		for b := int32(0); b < 64; b++ {
			if word&(1<<b) != 0 {
				out = append(out, int32(w)<<6|b)
			}
		}
	}
	return out
}

// bucketFIFO lists bucket k's reinserts in FIFO order.
func bucketFIFO(t *fleetTable, k int) []int32 {
	var out []int32
	for r := t.head[k]; r >= 0; r = t.next[r] {
		out = append(out, r)
	}
	return out
}

// bucketOrder lists bucket k's replicas in the order JSQ pops them:
// the snapshot set by id, then the FIFO.
func bucketOrder(t *fleetTable, k int) []int32 {
	return append(setMembers(t, k), bucketFIFO(t, k)...)
}

// cloneFleetTable deep-copies everything a JSQ pick writes, so picks
// on the copy leave t as it was.
func cloneFleetTable(t *fleetTable) *fleetTable {
	c := *t
	c.depth = slices.Clone(t.depth)
	c.in = slices.Clone(t.in)
	c.next = slices.Clone(t.next)
	c.picked = slices.Clone(t.picked)
	c.listed = slices.Clone(t.listed)
	for k := range c.sets {
		c.sets[k].words = slices.Clone(t.sets[k].words)
	}
	return &c
}

// drainJSQ makes up to n picks and lists them, stopping after the
// first that finds nothing routable.
func drainJSQ(t *fleetTable, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		rep := t.pick()
		out = append(out, rep)
		if rep < 0 {
			break
		}
	}
	return out
}

// tableSeeds are byte programs over the table's cases: each balancer,
// refreshes with few and with most replicas touched, membership flips,
// growth, hedges that avoid a replica, and the JSQ sets' corner cases —
// a replica picked twice in an epoch, one both picked and completed,
// completions that push a refresh past listCap, and a hedge whose
// assignment moves to nextUp.
var tableSeeds = map[string][]byte{
	"jsq few touched":     {0, 1, 30, 0, 1, 0, 1, 6, 0, 4, 7, 6, 0, 0, 1, 4, 2, 6, 0},
	"jsq most touched":    {0, 2, 2, 0, 1, 0, 1, 0, 1, 4, 5, 6, 0, 0, 1, 4, 7, 6, 0},
	"p2c flips":           {1, 3, 12, 0, 1, 1, 1, 5, 3, 6, 0, 2, 1, 4, 4, 5, 3, 6, 0, 3, 2, 6, 0},
	"rr growth":           {2, 0, 5, 0, 1, 7, 0x90, 0, 1, 0, 1, 6, 0, 7, 0x81, 5, 0, 7, 0, 0, 1},
	"hedge avoids":        {1, 1, 7, 0, 1, 3, 0, 3, 1, 3, 2, 4, 3, 6, 0, 3, 0, 6, 0},
	"jsq eject all but 1": {0, 3, 1, 5, 0, 5, 1, 0, 1, 6, 0, 5, 1, 0, 1, 6, 0, 4, 7, 6, 0},
	"jsq picked twice":    {0, 0, 0, 0, 1, 0, 1, 0, 1, 6, 0, 0, 1, 0, 1, 0, 1, 6, 0},
	"jsq picked and done": {0, 1, 28, 0, 1, 0, 1, 4, 7, 0, 1, 6, 0, 0, 1, 4, 7, 6, 0},
	"jsq done past cap":   {0, 3, 28, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 4, 7, 6, 0, 0, 1, 6, 0},
	"jsq hedge to next":   {0, 1, 5, 3, 0, 3, 0, 6, 0, 3, 2, 0, 1, 3, 1, 6, 0},
}

func TestFleetTableSeeds(t *testing.T) {
	for name, data := range tableSeeds {
		t.Run(name, func(t *testing.T) { checkFleetTable(t, data) })
	}
}

// FuzzFleetTable checks the incrementally refreshed route table
// against a full rebuild, over arbitrary picks, hedges, arrivals,
// completions, membership flips and fleet growth.
func FuzzFleetTable(f *testing.F) {
	for _, data := range tableSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFleetTable(t, data[:min(len(data), 1024)])
	})
}
