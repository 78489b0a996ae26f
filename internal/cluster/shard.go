package cluster

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// The sharded engine splits one cluster run across per-shard
// sim.Engines that advance in parallel between epoch barriers, with
// every cross-replica decision applied at barriers in one canonical
// order. The result is byte-identical for any shard count >= 1 and any
// worker count, because:
//
//   - Replica state is shard-confined between barriers. A replica's
//     queue events depend only on its own arrival/completion/freeze
//     order, and every instant at which something is scheduled for a
//     replica — a barrier decision or one of its own in-epoch events —
//     is itself independent of the shard layout. Cross-shard
//     interleaving on a shared engine touches disjoint state.
//   - Everything cross-replica (front-door routing, closed-loop
//     re-issue, ingress attempts, autoscaling, failure injection,
//     migration) is decided only at barriers, on buffered records
//     merged into a canonical (time, replica) order. A decision's
//     replica-local effect may be applied later by the replica's own
//     shard (closed-loop re-admission), but only in decision order and
//     before anything reads it.
//   - Merged statistics are order-insensitive (histogram counts,
//     integer cycle sums) or computed centrally in canonical order
//     (root latencies behind ingress); per-shard float accumulation
//     sums are never read.
//
// The trade against the single engine (Shards == 0) is quantization:
// routing sees queue depths as of the last barrier, and control
// decisions batch at barriers. EpochUS tunes that fidelity — it is a
// model parameter, so results depend on it, never on Shards.

// shardState is one shard's mutable accumulator set. Between barriers
// it is touched only by the goroutine driving its engine; barriers fold
// it from the coordinating goroutine (the worker handshake orders the
// accesses).
type shardState struct {
	eng  *sim.Engine
	sink sim.HandlerRef

	fleet sim.Histogram // cumulative root latencies (plain front door)
	win   sim.Histogram // since the last barrier; merged + reset there

	latSum    uint64 // exact integer latency total — the fleet mean's numerator
	latN      uint64
	completed uint64
	erred     uint64 // gray-failure errors since the last barrier

	fleetCompleted uint64 // ingress: attempts completed at this shard's replicas

	// touched lists this shard's replicas that completed a job since the
	// last table snapshot, once each (fleetTable.noteDone).
	touched []int32

	done  []doneRec  // plain closed-loop completions this epoch
	fdone []fdoneRec // ingress attempt completions this epoch

	// pend holds closed-loop re-admissions routed to this shard's
	// replicas at the last barrier, in canonical order; the shard's
	// worker applies them before the next epoch (see admitNow).
	pend []pendRec

	// ob is the shard's trace outbox (nil = observability off): records
	// emitted on this shard's goroutine between barriers, drained and
	// canonically merged at the next barrier (see clusterObs.drain).
	ob *obs.Buffer

	// acc aggregates this shard's completions into windowed series
	// state in parallel (nil = observability off); barriers fold sealed
	// windows into the central sampler.
	acc *servedAcc
}

// pendRec is one staged re-admission: the request and its routed
// replica. It is born at the barrier that routed it, where the shard's
// engine is still parked when the record is applied.
type pendRec struct {
	id  uint64
	rep int32
}

// arrivalSink delivers centrally generated arrivals on a shard's
// engine: plain requests carry their routed replica in Stage; Stage -1
// is an ingress client arrival (always on shard 0, where the proxy
// lives).
type arrivalSink struct{ c *Cluster }

func (a *arrivalSink) HandleEvent(_ *sim.Engine, j sim.Job) {
	if j.Stage < 0 {
		a.c.sh.fi.clientArrive(j)
		return
	}
	a.c.containers[j.Stage].q.Arrive(j)
}

// shardRun coordinates one sharded execution: the barrier loop, the
// worker pool, the centrally generated arrival stream, and the epoch
// outboxes.
type shardRun struct {
	c       *Cluster
	engines []*sim.Engine
	shards  []shardState
	table   *fleetTable
	fi      *fleetIngress

	now   cycles.Cycles
	epoch cycles.Cycles

	controlDue cycles.Cycles // 0 = no further control evaluations

	arr     sim.Arrivals
	arrRng  *sim.Rand
	nextArr cycles.Cycles
	arrOn   bool
	nextID  uint64

	collectDone bool      // buffer completions for closed-loop re-issue
	merge       doneMerge // reused S-way merge of the shards' done runs

	// drain holds the draining replicas still serving a backlog, in id
	// order; each barrier retires the ones that emptied.
	drain []*container

	// The worker pool: the coordinating goroutine runs shards itself
	// alongside workers-1 helpers. A pooled epoch wakes every helper
	// once; all of them claim shard indices from claim until none is
	// left, and each helper acks once. An epoch after one that fired
	// fewer than poolMin events runs inline instead (see runTo).
	workers int
	wake    chan struct{}
	ack     chan struct{}
	claim   atomic.Int32
	target  cycles.Cycles

	poolMin uint64 // poolMinEvents; tests lower it to force pooling
	fired   uint64 // events the shard engines had fired when the last epoch began

	inline, pooled int // epochs run each way
}

// poolMinEvents is the smallest previous-epoch event count for which
// runTo hands an epoch to the worker pool. Below it the wake/ack
// handoff, and the shard state crossing to another core, cost more
// than splitting the work saves. BenchmarkShardEpoch (2-core Xeon,
// 8 shards, 2 workers, two runs of three) puts the pooled epoch at
// 1.4–3.5× the inline one at 16 events, 5–25% slower at 256 and at
// 1,024, and 7–10% faster at 2,048 (up to 18% at 4,096): the constant
// is the first size at which pooling won in every run. canary-rollout
// and fleet-ingress epochs carry ~10 events and planet-fleet epochs
// 16k–32k, so any value from ~64 to ~16k makes the same choice on all
// three.
const poolMinEvents = 2048

func newShardRun(c *Cluster, shards int) *shardRun {
	s := &shardRun{
		c:       c,
		engines: make([]*sim.Engine, shards),
		shards:  make([]shardState, shards),
		poolMin: poolMinEvents,
	}
	sink := &arrivalSink{c: c}
	for i := range s.engines {
		e := sim.NewEngine()
		s.engines[i] = e
		s.shards[i].eng = e
		s.shards[i].sink = e.Register(sink)
		if c.ob != nil {
			s.shards[i].ob = &obs.Buffer{}
		}
	}
	s.table = newFleetTable(c, ingress.JSQ)
	return s
}

// placeReplica assigns a new container to its shard (round-robin by
// id, so the layout is a pure function of the id sequence) and opens
// its queue on that shard's engine.
func (s *shardRun) placeReplica(ct *container) {
	ct.shard = s.shardOf(ct.id - 1)
	ss := &s.shards[ct.shard]
	ct.q = sim.NewQueue(ss.eng, ct.name, s.c.servers)
	if s.c.ob != nil {
		s.c.ob.traceQueue(ct.q, ss.ob, uint32(ct.id), ct.name)
	}
	ct.q.OnStart = func(j sim.Job) { ct.epochBusy += j.Cost }
	if s.fi != nil {
		ct.q.OnDone = func(j sim.Job) { s.attemptDone(ct, j) }
	} else {
		ct.q.OnDone = func(j sim.Job) { s.replicaDone(ct, j) }
	}
	s.table.dirty = true
}

// shardOf is the shard owning replica index rep. Replica indices are
// container ids minus one and never change, so neither does the
// layout — the barrier stages work for a replica without touching it.
func (s *shardRun) shardOf(rep int) int32 { return int32(rep % len(s.engines)) }

// replicaDone observes one plain-front-door completion, shard-locally:
// merge-safe statistics now, the canonical re-issue record for the next
// barrier.
func (s *shardRun) replicaDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard]
	s.table.noteDone(ct, ss)
	now := ss.eng.Now()
	lat := now - j.Born
	if ct.errRate > 0 && ct.errRng.Float64() < ct.errRate {
		// Gray completion: the replica answered with an error. The coin
		// comes from the replica's private stream and its completions
		// are engine-local, so the draw sequence is shard-layout
		// invariant. Closed-loop clients still re-issue.
		ss.erred++
		if o := s.c.ob; o != nil {
			ss.ob.Emit(now, o.kErred, uint64(lat), 0)
		}
		if s.collectDone {
			ss.done = append(ss.done, doneRec{at: now, rep: int32(ct.id - 1), id: j.ID})
		}
		return
	}
	ss.fleet.Observe(lat)
	ss.win.Observe(lat)
	ss.latSum += uint64(lat)
	ss.latN++
	ss.completed++
	if o := s.c.ob; o != nil {
		ss.ob.Emit(now, o.kServed, uint64(lat), uint64(j.Cost))
	}
	if s.collectDone {
		ss.done = append(ss.done, doneRec{at: now, rep: int32(ct.id - 1), id: j.ID})
	}
}

// accScan folds the epoch's served completions from shard i's outbox
// into its windowed accumulator — a tight sequential pass run by the
// worker that just finished the shard's epoch, so the aggregation
// stays out of the event loop and overlaps across workers. The outbox
// holds exactly this epoch's records (barriers flush it), and the
// shard is untouched by anyone else until its ack.
func (s *shardRun) accScan(i int) {
	ss := &s.shards[i]
	key := s.c.ob.kServed
	recs := ss.ob.Take()
	for k := range recs {
		if recs[k].Key == key {
			ss.acc.observe(recs[k].At, recs[k].A, recs[k].B)
		}
	}
}

// attemptDone records one ingress attempt completion, shard-locally;
// the barrier decides what the completion means for its call (and
// whether its latency counts — only winning attempts feed the hedge
// quantile, like the single-engine graph).
func (s *shardRun) attemptDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard]
	s.table.noteDone(ct, ss)
	ss.fleetCompleted++
	// The gray-failure coin is drawn at completion time from the
	// replica's private stream: its completions are engine-local, so
	// the draw sequence is shard-layout invariant. The barrier decides
	// whether anyone was still waiting for the answer.
	erred := ct.errRate > 0 && ct.errRng.Float64() < ct.errRate
	ss.fdone = append(ss.fdone, fdoneRec{at: ss.eng.Now(), born: j.Born, id: j.ID, cost: j.Cost, erred: erred})
}

// admitNow routes one request at the current barrier instant — the
// sharded counterpart of Cluster.dispatch, used for closed-loop
// seeding and re-issue. Routing, counters and trace emission happen
// here, in canonical order; behind the plain front door the queue
// admission itself is staged on the owning shard's pend list. The
// shard's worker applies it just before the next epoch — the engine is
// still parked at this instant, and each shard's pend is its slice of
// the canonical order, so queue state, engine tie order and trace
// order come out exactly as if it had been applied here. Callers that
// read queues before then call flushPend.
func (s *shardRun) admitNow(id uint64) {
	c := s.c
	if s.fi != nil {
		c.dispatched++
		if c.ob != nil {
			c.ob.countArrive(s.now)
		}
		s.fi.admit(id, s.now)
		return
	}
	rep := s.table.pick()
	if rep < 0 {
		c.dropped++
		if c.ob != nil {
			c.ob.cen.Emit(s.now, c.ob.kDropped, id, 0)
		}
		return
	}
	c.dispatched++
	if c.ob != nil {
		c.ob.countArrive(s.now)
	}
	ss := &s.shards[s.shardOf(rep)]
	ss.pend = append(ss.pend, pendRec{id: id, rep: int32(rep)})
}

// applyPend admits shard i's staged re-admissions in order. Between
// barriers only shard i's worker calls it; flushPend calls it serially.
// The service cost is stamped here rather than at routing: a replica's
// cost changes only in fault and control steps, which flush first.
func (s *shardRun) applyPend(i int) {
	c := s.c
	ss := &s.shards[i]
	now := ss.eng.Now()
	for _, p := range ss.pend {
		ct := c.containers[p.rep]
		ct.q.Arrive(sim.Job{ID: p.id, Cost: c.costOf(ct), Born: now, Stage: int(p.rep)})
	}
	ss.pend = ss.pend[:0]
}

// flushPend applies every shard's staged admissions now — the serial
// fallback for barrier steps that read live queue state.
func (s *shardRun) flushPend() {
	for i := range s.shards {
		s.applyPend(i)
	}
}

// runShard is one shard's parallel phase: apply the barrier's staged
// admissions, advance the engine to next, then sort the epoch's
// completions and scan its trace outbox while the shard is still
// private to this goroutine.
func (s *shardRun) runShard(i int, next cycles.Cycles) {
	s.applyPend(i)
	s.engines[i].Run(next)
	if s.collectDone {
		sortDone(s.shards[i].done)
	}
	if s.c.ob != nil {
		s.accScan(i)
	}
}

// start arms the run: barrier schedule, arrival stream or population,
// routing stream, and the worker pool.
func (s *shardRun) start(t Traffic, conc int) {
	c := s.c
	if c.cfg.EpochUS > 0 {
		s.epoch = cycles.FromSeconds(c.cfg.EpochUS / 1e6)
	} else {
		// Adaptive default: two service times per barrier, so the
		// default saturating closed loop (two jobs per server slot)
		// spans the epoch and barrier re-admits keep servers busy.
		s.epoch = min(2*c.per, cycles.FromSeconds(maxDefaultEpochUS/1e6))
	}
	if s.epoch == 0 {
		s.epoch = 1
	}
	s.controlDue = min(c.interval, c.horizon)
	s.collectDone = c.closedLoop && s.fi == nil
	s.table.rng = sim.NewRand(t.Seed ^ 0x16c4e5500) // routing stream, as on the single engine
	s.table.rebuild()
	if t.Open() {
		s.arr = t.Arrivals()
		s.arrRng = sim.NewRand(t.Seed)
		s.nextArr = s.arr.Next(s.arrRng)
		s.arrOn = true
	} else {
		for i := 0; i < conc; i++ {
			s.admitNow(uint64(i + 1))
		}
		// Seeding stays immediate: the t=0 barrier's table rebuild reads
		// the seeded depths.
		s.flushPend()
	}

	w := c.cfg.ShardWorkers
	if w <= 0 {
		w = min(len(s.engines), runtime.GOMAXPROCS(0))
	}
	if w > len(s.engines) {
		w = len(s.engines)
	}
	s.workers = w
	if w > 1 {
		s.wake = make(chan struct{}, w-1)
		s.ack = make(chan struct{}, w-1)
		// Each helper gets the channels as arguments: a helper that no
		// epoch ever woke has no other ordering against stop, which
		// clears s.wake.
		for i := 1; i < w; i++ {
			go func(wake <-chan struct{}, ack chan<- struct{}) {
				for range wake {
					s.runClaimed()
					ack <- struct{}{}
				}
			}(s.wake, s.ack)
		}
	}
}

// step runs one barrier plus the epoch after it. It returns false once
// the final barrier (at the horizon) has been processed.
func (s *shardRun) step() bool {
	s.barrier()
	if s.now >= s.c.horizon {
		return false
	}
	next := s.now + s.epoch
	if s.controlDue > s.now && s.controlDue < next {
		next = s.controlDue
	}
	if x := s.c.chaos; x != nil {
		// Fault events and probe sweeps land on their exact instants:
		// the barrier schedule caps the epoch at the next chaos due
		// time, exactly as it does for the control loop.
		if d := x.nextDue(); d > s.now && d < next {
			next = d
		}
	}
	if next > s.c.horizon {
		next = s.c.horizon
	}
	s.genArrivals(next)
	s.runTo(next)
	s.now = next
	return true
}

// stop releases the worker pool.
func (s *shardRun) stop() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// barrier is the serial phase at virtual instant s.now: fold shard
// accumulators when a step below reads them, retire finished drains,
// resnapshot routing, apply buffered cross-shard effects canonically,
// then any chaos and control-plane actions due at this instant.
func (s *shardRun) barrier() {
	c := s.c
	if c.ob != nil {
		// Drain the finished epoch's trace batch first: per-shard
		// outboxes plus the central one (previous barrier's emissions and
		// this epoch's generated arrivals), merged canonically. Records
		// the rest of this barrier emits carry timestamp s.now and join
		// the next batch — batch boundaries are model properties.
		c.ob.drain(s, s.now)
	}
	chaosDue := c.chaos != nil && c.chaos.dueAt(s.now)
	controlDue := s.controlDue != 0 && s.now >= s.controlDue
	if chaosDue || controlDue {
		s.fold()
	}
	s.retireDrained()
	s.table.refresh()
	if s.fi != nil {
		s.fi.processEpoch()
	} else if s.collectDone {
		s.processDone()
	}
	// Staged re-admissions stay staged unless a step below reads live
	// queue state at this instant: fault and probe handling, or the
	// control step. Only those steps change routing membership, and the
	// horizon is always a control instant, so the closing rebuild and
	// the final assembly see every admission too.
	mutated := false
	if chaosDue {
		s.flushPend()
		mutated = c.chaos.atBarrier(s.now)
	}
	if controlDue {
		s.flushPend()
		c.controlStep(s.now)
		if next := min(s.now+c.interval, c.horizon); next > s.now {
			s.controlDue = next
		} else {
			s.controlDue = 0
		}
		mutated = true
	}
	if mutated || s.table.dirty {
		s.table.rebuild()
	}
}

// fold moves the shard accumulators into the cluster's control-window
// state: busy cycles into the fleet and node integrals, window
// latencies into c.win, gray errors into c.erred. Only the control
// step, the deploy guard and the horizon's report read that state, and
// only chaos and control steps move a replica to another node, so the
// barrier folds just before those steps. It must run at the barrier's
// start, before processEpoch, processDone or any flushPend: admissions
// there start service at this instant, and that busy time belongs to
// the next control window.
func (s *shardRun) fold() {
	c := s.c
	for _, ct := range c.containers {
		if ct.epochBusy != 0 {
			c.winBusy += ct.epochBusy
			ct.node.busy += ct.epochBusy
			ct.node.winBusy += ct.epochBusy
			ct.epochBusy = 0
		}
	}
	for i := range s.shards {
		ss := &s.shards[i]
		c.win.Merge(&ss.win)
		ss.win.Reset()
		c.erred += ss.erred
		ss.erred = 0
	}
}

// noteDraining adds a replica that scale-down drained with a backlog
// to the drain list, keeping it in id order.
func (s *shardRun) noteDraining(ct *container) {
	i, _ := slices.BinarySearchFunc(s.drain, ct.id, func(d *container, id int) int { return cmp.Compare(d.id, id) })
	s.drain = slices.Insert(s.drain, i, ct)
}

// retireDrained retires, in id order, the draining replicas whose
// backlog emptied during the epoch, and forgets any that left the
// fleet another way (a node failure strands them).
func (s *shardRun) retireDrained() {
	kept := s.drain[:0]
	for _, ct := range s.drain {
		if !ct.gone && ct.q.Depth() == 0 {
			s.c.retire(ct)
		}
		if !ct.gone {
			kept = append(kept, ct)
		}
	}
	clear(s.drain[len(kept):])
	s.drain = kept
}

// processDone re-issues the epoch's closed-loop completions in
// canonical (time, replica) order. Each shard's worker has already
// sorted its own buffer by (at, rep) (sortDone), so the barrier only
// merges the S sorted runs. A replica lives on exactly one shard, so
// no (at, rep) pair spans two runs: the merge needs no tie-break, and
// within a pair the buffer order is that replica's own completion
// order — one total order that no shard layout can perturb. Routing
// happens here; the admissions are staged on the owning shards
// (admitNow) and applied by their workers before the next epoch, or
// serially first if this barrier goes on to read live queues (a fault,
// probe or control step).
func (s *shardRun) processDone() {
	m := &s.merge
	m.runs = m.runs[:0]
	for i := range s.shards {
		m.runs = append(m.runs, s.shards[i].done)
	}
	m.reset()
	for r := m.next(); r != nil && r.at < s.c.horizon; r = m.next() {
		s.admitNow(r.id)
	}
	for i := range s.shards {
		s.shards[i].done = s.shards[i].done[:0]
	}
}

// genArrivals generates the open-loop stream for the epoch (s.now,
// next]: each arrival is routed against the barrier's table (plus the
// epoch's own assignments) and scheduled as a typed event at its exact
// instant on the target shard — one central stream, so ids, times, and
// placements never depend on the shard layout.
func (s *shardRun) genArrivals(next cycles.Cycles) {
	if !s.arrOn {
		return
	}
	c := s.c
	for s.nextArr <= next {
		if s.nextArr >= c.horizon {
			s.arrOn = false
			return
		}
		t := s.nextArr
		s.nextID++
		if s.fi != nil {
			c.dispatched++
			if c.ob != nil {
				c.ob.countArrive(t)
			}
			s.engines[0].ScheduleAt(t, s.shards[0].sink, sim.Job{ID: s.nextID, Born: t, Stage: -1})
		} else if rep := s.table.pick(); rep < 0 {
			c.dropped++
			if c.ob != nil {
				c.ob.cen.Emit(t, c.ob.kDropped, s.nextID, 0)
			}
		} else {
			c.dispatched++
			if c.ob != nil {
				c.ob.countArrive(t)
			}
			ct := c.containers[rep]
			s.engines[ct.shard].ScheduleAt(t, s.shards[ct.shard].sink, sim.Job{ID: s.nextID, Cost: c.costOf(ct), Born: t, Stage: rep})
		}
		s.nextArr = t + s.arr.Next(s.arrRng)
	}
}

// runTo advances every shard engine to the next barrier: through the
// worker pool when there is one and the last epoch fired at least
// poolMin events, inline on this goroutine otherwise. An epoch's size
// is a pure function of the run, so the choice is deterministic, and
// results are identical either way — only wall-clock differs.
func (s *shardRun) runTo(next cycles.Cycles) {
	fired := s.c.EventsFired()
	last := fired - s.fired
	s.fired = fired
	if s.workers <= 1 || last < s.poolMin {
		s.inline++
		for i := range s.engines {
			s.runShard(i, next)
		}
	} else {
		s.pooled++
		s.target = next
		s.claim.Store(0)
		for i := 1; i < s.workers; i++ {
			s.wake <- struct{}{}
		}
		s.runClaimed()
		for i := 1; i < s.workers; i++ {
			<-s.ack
		}
	}
}

// runClaimed runs shards until every index of this epoch is claimed.
// A shard is private to the goroutine that claimed it until the
// coordinator has collected every helper's ack.
func (s *shardRun) runClaimed() {
	for {
		i := int(s.claim.Add(1)) - 1
		if i >= len(s.engines) {
			return
		}
		s.runShard(i, s.target)
	}
}
