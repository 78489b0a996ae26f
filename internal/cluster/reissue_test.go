package cluster

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// idRep is one resolved re-admission: the request and its replica.
type idRep struct {
	id  uint64
	rep int32
}

// refReissue is the closed-loop re-issue as the barrier ran it before
// the split: refresh the route table, then route each merged record in
// turn, the way admitNow did — pick, count, and stage the request on
// the owning shard, or drop it at the door when nothing is routable.
// It stages resolved (id, rep) pairs on lists of its own, returned per
// shard, instead of the pend lists.
func refReissue(s *shardRun) [][]idRep {
	c := s.c
	s.table.refresh()
	staged := make([][]idRep, len(s.shards))
	m := &s.merge
	m.runs = m.runs[:0]
	for i := range s.shards {
		m.runs = append(m.runs, s.shards[i].done)
	}
	m.reset()
	for r := m.next(); r != nil && r.at < c.horizon; r = m.next() {
		rep := s.table.pick()
		if rep < 0 {
			c.dropped++
			if c.ob != nil {
				c.ob.cen.Emit(s.now, c.ob.kDropped, r.id, 0)
			}
			continue
		}
		c.dispatched++
		if c.ob != nil {
			c.ob.smp.FeedN(s.now, c.ob.kArrive, 1)
		}
		sh := s.shardOf(rep)
		staged[sh] = append(staged[sh], idRep{r.id, int32(rep)})
	}
	for i := range s.shards {
		s.shards[i].done = s.shards[i].done[:0]
	}
	return staged
}

// resolvedPend reads the split barrier's pend lists as (id, rep) pairs,
// each id resolved through s.ids as applyPend resolves it.
func resolvedPend(s *shardRun) [][]idRep {
	staged := make([][]idRep, len(s.shards))
	for i := range s.shards {
		for _, p := range s.shards[i].pend {
			staged[i] = append(staged[i], idRep{s.ids[p.k], p.rep})
		}
	}
	return staged
}

// reissueFixture builds one side of the re-issue oracle: a closed-loop
// fleet of 8 replicas per shard, dealt round-robin (block 1) so that
// replica r lives on shard r%S, as decodeDone's records assume, seeded
// with conc connections. traced arms observability.
func reissueFixture(t *testing.T, shards, workers, conc int, horizon cycles.Cycles, traced bool) *Cluster {
	t.Helper()
	cfg := testConfig(t, runtimes.XContainer)
	cfg.Nodes, cfg.MaxNodes, cfg.Replicas = 8*shards, 8*shards, 8*shards
	cfg.Shards, cfg.ShardWorkers = shards, workers
	cfg.layoutBlock = 1
	if traced {
		cfg.Observe = &ObserveConfig{WindowUS: 1}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.sh.poolMin = 0 // the split pools at every barrier when there are two workers
	armRun(t, c, Traffic{Concurrency: conc, Seed: 1}, horizon)
	return c
}

// loadDone installs one barrier's completion runs on c's shards as the
// workers leave them: each record listed for the table refresh by its
// replica's shard (noteDone), each run sorted (sortDone).
func loadDone(c *Cluster, runs [][]doneRec) {
	s := c.sh
	for i := range s.shards {
		ss := &s.shards[i]
		ss.done = ss.done[:0]
		if i < len(runs) {
			ss.done = append(ss.done, runs[i]...)
		}
		for _, r := range ss.done {
			s.table.noteDone(c.containers[r.rep], &ss.shardState)
		}
		sortDone(ss.done)
	}
}

// setRoutable ejects every replica of c, or readmits them all, and
// rebuilds the route table if that changed anything, as the barrier
// after a chaos step does.
func setRoutable(c *Cluster, on bool) {
	changed := false
	for _, ct := range c.containers {
		if ct.ejected == on {
			ct.ejected = !on
			changed = true
		}
	}
	if changed {
		c.sh.table.rebuild()
	}
}

// takeSeries moves everything c's central sampler holds into a fresh
// one and materializes it: the arrivals counted since the last take.
func takeSeries(c *Cluster) *obs.TimeSeries {
	snap := obs.NewSampler(c.ob.smp.Window(), c.horizon)
	snap.Absorb(c.ob.smp, 0, math.MaxInt)
	return snap.Finish(nil)
}

// checkReissue runs the split barrier (processDone) and the serial
// reference (refReissue) on two identical fleets over a byte program
// and requires the same outcome. The header picks:
//
//	data[0]  the shard count S in [1, 8] (decodeDone's first byte);
//	data[1]  bit 0: two workers, the split forced onto the pool (the
//	         pool is never wider than the shard count);
//	         bit 1: observability on; bits 2-3: barrier 1, 2 has no
//	         routable replica; bits 4-7: seeded connections (1-16);
//	data[2]  the horizon, in cycles, which cuts through the records'
//	         instants (decodeDone's clocks advance by 1-4 cycles).
//
// The rest splits in two halves, each one barrier's completion runs in
// decodeDone's encoding under the header's shard count. After each
// barrier the two fleets must hold the same per-shard staged (id, rep)
// lists, door counters, central trace and arrival series, route
// table depths and, once their admissions are applied, queue depths;
// after both, their tables must make the same next picks.
func checkReissue(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	shards := 1 + int(data[0])%8
	workers := 1 + int(data[1]&1)
	traced := data[1]&2 != 0
	conc := 1 + int(data[1]>>4)
	horizon := cycles.Cycles(data[2])
	a := reissueFixture(t, shards, workers, conc, horizon, traced)
	b := reissueFixture(t, shards, workers, conc, horizon, traced)

	var arrived uint64 // Σ arrivals in the series taken so far
	body := data[3:]
	halves := [][]byte{body[:len(body)/2], body[len(body)/2:]}
	for round, half := range halves {
		prog := append([]byte{data[0]}, half...)
		routable := data[1]&(4<<round) == 0
		setRoutable(a, routable)
		setRoutable(b, routable)
		loadDone(a, decodeDone(prog))
		loadDone(b, decodeDone(prog))

		a.sh.processDone()
		want := refReissue(b.sh)
		got := resolvedPend(a.sh)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("barrier %d, shard %d: staged %v, reference %v", round, i, got[i], want[i])
			}
		}
		if a.dispatched != b.dispatched || a.dropped != b.dropped {
			t.Fatalf("barrier %d: dispatched %d, dropped %d; reference %d, %d",
				round, a.dispatched, a.dropped, b.dispatched, b.dropped)
		}
		if !routable && a.dropped == 0 && len(a.sh.ids) > 0 {
			t.Fatalf("barrier %d: %d re-issues with no routable replica, none dropped", round, len(a.sh.ids))
		}
		if traced {
			if ga, gb := a.ob.rec.Records(), b.ob.rec.Records(); !slices.Equal(ga, gb) {
				t.Fatalf("barrier %d: central trace %v, reference %v", round, ga, gb)
			}
			sa, sb := takeSeries(a), takeSeries(b)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("barrier %d: series %+v, reference %+v", round, sa.Windows, sb.Windows)
			}
			for _, w := range sa.Windows {
				arrived += w.Arrived
			}
			if arrived != a.dispatched {
				t.Fatalf("barrier %d: series counts %d arrivals, the cluster %d", round, arrived, a.dispatched)
			}
		}
		if !slices.Equal(a.sh.table.depth, b.sh.table.depth) || a.sh.table.sum != b.sh.table.sum {
			t.Fatalf("barrier %d: table depths %v (sum %d), reference %v (sum %d)",
				round, a.sh.table.depth, a.sh.table.sum, b.sh.table.depth, b.sh.table.sum)
		}

		a.sh.flushPend()
		for i, list := range want {
			now := b.sh.engines[i].Now()
			for _, p := range list {
				ct := b.containers[p.rep]
				ct.q.Arrive(sim.Job{ID: p.id, Cost: b.costOf(ct), Born: now, Stage: int(p.rep)})
			}
		}
		for i, ct := range a.containers {
			if d, w := ct.q.Depth(), b.containers[i].q.Depth(); d != w {
				t.Fatalf("barrier %d: replica %d holds %d jobs, reference %d", round, i, d, w)
			}
		}
	}
	if a.sh.pool.Workers() > 1 && a.sh.splits != len(halves) {
		t.Fatalf("%d of %d barriers ran their streams on the pool", a.sh.splits, len(halves))
	}
	for k := 0; k < 16; k++ {
		if pa, pb := a.sh.table.pick(), b.sh.table.pick(); pa != pb {
			t.Fatalf("next pick %d: replica %d, reference %d", k, pa, pb)
		}
	}
}

// reissueSeeds are the split's boundary cases as byte programs: a
// header (shard count; workers, tracing, unroutable barriers and
// population; horizon), then two barriers' records in decodeDone's
// encoding (shard selector, with bits 3-5 all set advancing that
// shard's clock, then rep selector).
var reissueSeeds = map[string][]byte{
	"no records":                 {2, 0x13, 9},
	"one shard, before horizon":  {0, 0x10, 200, 0, 1, 0x38, 2, 0, 3, 0x3f, 4},
	"eight shards, two workers":  {7, 0xf3, 40, 0x38, 1, 0x3f, 2, 0x3a, 0xc3, 0x3d, 4, 5, 9, 0x3e, 0x46, 0x3f, 7, 0, 0, 1, 1, 2, 3, 0x39, 4},
	"horizon cuts a tie group":   {3, 0x33, 2, 0x38, 0x40, 1, 2, 0x39, 0, 0x3a, 5, 2, 6, 0x38, 0x80, 1, 7},
	"every record at horizon":    {2, 0x23, 0, 0, 1, 1, 2, 2, 3, 0, 4, 1, 5},
	"records after horizon":      {1, 0x53, 1, 0x38, 0xc0, 0x39, 0xc1, 0, 2, 0x38, 0xc0, 1, 3},
	"no routable replica":        {3, 0x07, 255, 0, 1, 1, 2, 2, 3, 3, 4, 0x38, 5, 0, 1, 1, 2},
	"routable then none, pooled": {4, 0x6b, 255, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 1, 1, 2, 0x3b, 3},
	"none then routable, inline": {5, 0x86, 255, 0, 1, 1, 2, 2, 3, 0x38, 4, 0, 1, 1, 2, 3, 0x3c},
	// One replica completing twelve times at one instant per barrier, as
	// in doneSeeds: enough to take the unstable sort past its cutoff.
	"replica twelve times at once": append([]byte{1, 0xf1, 255}, []byte("000000000000000000000000000000000000000000000000")...),
}

func TestReissueSplitSeeds(t *testing.T) {
	for name, data := range reissueSeeds {
		t.Run(name, func(t *testing.T) { checkReissue(t, data) })
	}
}

// FuzzReissueSplit checks the split barrier — picks and merge as two
// streams, ids resolved at apply time — against the serial loop it
// replaced, over arbitrary barriers.
func FuzzReissueSplit(f *testing.F) {
	for _, data := range reissueSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReissue(t, data[:min(len(data), 2048)])
	})
}
