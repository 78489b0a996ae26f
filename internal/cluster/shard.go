package cluster

import (
	"cmp"
	"runtime"
	"slices"
	"unsafe"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
	"xcontainers/internal/sim/par"
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

	fleet obs.Histogram // cumulative root latencies (plain front door)
	win   obs.Histogram // since the last barrier; merged + reset there

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
	// worker applies them before the next epoch (see stage).
	pend []pendRec

	// ob is the shard's trace outbox (nil = observability off): records
	// emitted on this shard's goroutine between barriers, drained and
	// canonically merged at the next barrier (see clusterObs.drain).
	ob *obs.Buffer

	// smp aggregates the outbox's records into this shard's windows in
	// parallel (nil = observability off); barriers absorb the windows
	// that can no longer change into the central sampler.
	smp *obs.Sampler
}

// shardLines is a shardState padded to whole 64-byte cache lines. The
// shards sit side by side in one slice and run on different cores.
// Unpadded, the tail of one shard's state (the touched, done and pend
// lists it appends to) can share a line with the head of the next
// shard's (its engine pointer, read on every completion).
type shardLines struct {
	shardState
	_ [(64 - unsafe.Sizeof(shardState{})%64) % 64]byte
}

// pendRec is one staged re-admission: the routed replica and the
// position k of the request's id in shardRun.ids. It is born at the
// barrier that routed it, where the shard's engine is still parked
// when the record is applied. The id is read only then, so a barrier
// can route its picks before it knows which request each one carries.
type pendRec struct {
	k   int32
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
	shards  []shardLines
	table   *fleetTable
	fi      *fleetIngress

	now   cycles.Cycles
	epoch cycles.Cycles
	block int // replicas per layout block (see shardOf)

	controlDue cycles.Cycles // 0 = no further control evaluations

	arr     sim.Arrivals
	arrRng  *sim.Rand
	nextArr cycles.Cycles
	arrOn   bool
	nextID  uint64

	collectDone bool      // buffer completions for closed-loop re-issue
	merge       doneMerge // reused S-way merge of the shards' done runs

	// owner[rep] is shardOf(rep), kept dense so that staging a pick
	// costs a load instead of two divisions.
	owner []int32
	// ids holds the request ids routed since the barrier began, in
	// canonical order; the pend records index it until their shards
	// apply them. processDone reuses it at every barrier.
	ids     []uint64
	noRoute bool // the last stage found no routable replica

	// drain holds the draining replicas still serving a backlog, in id
	// order; each barrier retires the ones that emptied.
	drain []*container

	// pool runs pooled epochs (internal/sim/par); runTo runs an epoch
	// inline instead after one that fired fewer than poolMin events.
	pool    *par.Pool
	runFn   func(int) // s.runShard, bound once: a method value per epoch allocates
	splitFn func(int) // s.splitStream, bound once for the same reason
	target  cycles.Cycles

	poolMin uint64 // poolMinEvents; tests lower it to force pooling
	fired   uint64 // events the shard engines had fired when the last epoch began

	inline, pooled int // epochs run each way
	splits         int // barriers whose two re-issue streams ran pooled
}

// poolMinEvents is the smallest previous-epoch event count for which
// runTo hands an epoch to the worker pool. Below it the wake/ack
// handoff, and the shard state crossing to another core, cost more
// than splitting the work saves. BenchmarkShardEpoch (2-core Xeon,
// 8 shards, 2 workers, five runs) puts the pooled epoch at 1.04×
// the inline one at 1,024 events, 0.90× at 2,048, 1.05× at 4,096,
// 0.97× at 8,192 and 0.90× at 16,384, the only size at which pooling
// won every run; from 2,048 to 8,192 the two are within the noise.
// The benchmark fleet's open loop generates and routes every arrival
// serially at the barrier, which caps what a second worker can save.
// canary-rollout and fleet-ingress epochs carry ~10 events and
// planet-fleet epochs 16k–32k, so any value from ~64 to ~16k makes the
// same choice on all three, and the constant stays where the first
// sizing put it.
//
// processDone holds its two streams to the same threshold, counted in
// records to re-issue. BenchmarkShardEpoch's closed-loop cases put the
// split at 0.75–1.9× the inline barrier up to 1,024 records, within the
// noise at 2,048 and 4,096, and at 0.53–0.61× at 16,384; planet-fleet
// barriers re-issue ~20k records.
const poolMinEvents = 2048

func newShardRun(c *Cluster, shards int) *shardRun {
	s := &shardRun{
		c:       c,
		engines: make([]*sim.Engine, shards),
		shards:  make([]shardLines, shards),
		block:   min(max(c.cfg.Replicas/shards, 1), maxLayoutBlock),
		poolMin: poolMinEvents,
	}
	if c.cfg.layoutBlock > 0 {
		s.block = c.cfg.layoutBlock
	}
	sink := &arrivalSink{c: c}
	for i := range s.engines {
		e := sim.NewEngine()
		// A replica's completion is scheduled c.per after its service
		// starts unless a gray fault scaled the replica's cost, so
		// nearly every completion rides this lane instead of the heap.
		e.DeclareDelay(c.per)
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

// maxLayoutBlock caps the layout's block: 64 replicas' queues and
// containers, allocated in id order, span enough memory that a shard's
// working set rarely shares a cache line with another shard's, while
// fleets of up to 64×Shards replicas still give every shard a block.
const maxLayoutBlock = 64

// placeReplica assigns a new container to its shard (see shardOf) and
// opens its queue on that shard's engine. Containers are placed in id
// order, so owner grows by one entry per replica.
func (s *shardRun) placeReplica(ct *container) {
	ct.shard = s.shardOf(ct.id - 1)
	s.owner = append(s.owner, ct.shard)
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
}

// shardOf is the shard owning replica index rep. Replicas are dealt to
// shards in blocks of s.block consecutive indices, round-robin by
// block: a shard's queues and containers, allocated in id order, lie
// in a few contiguous runs instead of strided across the whole fleet.
// The block is fixed at construction from the configured fleet
// (Replicas/Shards, at most maxLayoutBlock), so every shard gets work
// and replicas added later continue the same deal. Replica indices are
// container ids minus one and never change, so neither does the
// layout — the barrier stages work for a replica without touching it.
func (s *shardRun) shardOf(rep int) int32 {
	return int32(rep / s.block % len(s.engines))
}

// replicaDone observes one plain-front-door completion, shard-locally:
// merge-safe statistics now, the canonical re-issue record for the next
// barrier.
func (s *shardRun) replicaDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard].shardState
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

// accScan feeds shard i's outbox to its sampler — a tight sequential
// pass run by the worker that just finished the shard's epoch, so the
// aggregation stays out of the event loop and overlaps across workers.
// The outbox holds exactly the records emitted since the last barrier
// drained it, and the shard is untouched by anyone else until its ack.
func (s *shardRun) accScan(i int) {
	ss := &s.shards[i]
	recs := ss.ob.Take()
	for k := range recs {
		ss.smp.Feed(recs[k].At, recs[k].Key, recs[k].A, recs[k].B)
	}
}

// attemptDone records one ingress attempt completion, shard-locally;
// the barrier decides what the completion means for its call (and
// whether its latency counts — only winning attempts feed the hedge
// quantile, like the single-engine graph).
func (s *shardRun) attemptDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard].shardState
	s.table.noteDone(ct, ss)
	ss.fleetCompleted++
	// The gray-failure coin is drawn at completion time from the
	// replica's private stream: its completions are engine-local, so
	// the draw sequence is shard-layout invariant. The barrier decides
	// whether anyone was still waiting for the answer.
	erred := ct.errRate > 0 && ct.errRng.Float64() < ct.errRate
	ss.fdone = append(ss.fdone, fdoneRec{at: ss.eng.Now(), born: j.Born, id: j.ID, cost: j.Cost, erred: erred})
}

// admitNow routes the requests ids at the current barrier instant and
// applies them at once: the sharded engine's admission for closed-loop
// seeding and for the backlog a fault step takes off a replica. Behind
// the ingress the requests enter the flyweight tier in order; behind
// the plain front door they take the path of a barrier's re-issues
// (stage, then admitted) as one batch, and the staged admissions are
// applied before admitNow returns, because the steps that call it go
// on to read the queue depths they change.
func (s *shardRun) admitNow(ids []uint64) {
	c := s.c
	if s.fi != nil {
		c.dispatched += uint64(len(ids))
		if c.ob != nil {
			c.ob.smp.FeedN(s.now, c.ob.kArrive, uint64(len(ids)))
		}
		for _, id := range ids {
			s.fi.admit(id, s.now)
		}
		return
	}
	from := len(s.ids)
	s.ids = append(s.ids, ids...)
	s.stage(from)
	s.admitted(from)
	s.flushPend()
}

// stage routes the requests s.ids[from:] at the current barrier
// instant. The k-th pick is staged as (k, rep) on the pend list of the
// shard owning rep. The shard's worker applies it just before the next
// epoch: the engine is still parked at this instant, and each shard's
// pend is its slice of the canonical order, so queue state, engine tie
// order and trace order come out exactly as if it had been applied
// here. Callers that read queues before then call flushPend.
//
// A pick reads the route table and nothing else, so the k-th pick
// depends on the table and on k, never on which request is k-th; stage
// reads only the length of s.ids, and processDone fills in the ids
// while it runs. A pick finds no routable replica only when the table
// holds none, and picks never take a replica out, so then every later
// pick of the barrier finds none either: stage stops at the first
// miss and records that none of its requests was routed.
func (s *shardRun) stage(from int) {
	s.noRoute = false
	for k := from; k < len(s.ids); k++ {
		rep := s.table.pick()
		if rep < 0 {
			s.noRoute = true
			return
		}
		ss := &s.shards[s.owner[rep]]
		ss.pend = append(ss.pend, pendRec{k: int32(k), rep: int32(rep)})
	}
}

// admitted settles the counters and the trace for the requests
// s.ids[from:] that stage routed, in id order: all were dispatched, or
// none was routable and all were dropped at the door.
func (s *shardRun) admitted(from int) {
	c := s.c
	n := len(s.ids) - from
	if s.noRoute {
		c.dropped += uint64(n)
		if c.ob != nil {
			for _, id := range s.ids[from:] {
				c.ob.cen.Emit(s.now, c.ob.kDropped, id, 0)
			}
		}
		return
	}
	c.dispatched += uint64(n)
	if c.ob != nil {
		c.ob.smp.FeedN(s.now, c.ob.kArrive, uint64(n))
	}
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
		ct.q.Arrive(sim.Job{ID: s.ids[p.k], Cost: c.costOf(ct), Born: now, Stage: int(p.rep)})
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
// admissions, advance the engine to the epoch's target, then sort the
// epoch's completions and scan its trace outbox while the shard is
// still private to this goroutine.
func (s *shardRun) runShard(i int) {
	s.applyPend(i)
	s.engines[i].Run(s.target)
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
		// Seeding is applied at once: the t=0 barrier's table refresh
		// reads the seeded depths.
		ids := make([]uint64, conc)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		s.admitNow(ids)
	}

	w := c.cfg.ShardWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s.pool = par.New(min(w, len(s.engines)))
	s.runFn = s.runShard
	s.splitFn = s.splitStream
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
func (s *shardRun) stop() { s.pool.Close() }

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
	if s.collectDone {
		s.processDone() // refreshes the table alongside the merge
	} else {
		s.table.refresh()
		if s.fi != nil {
			s.fi.processEpoch()
		}
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
	if mutated {
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
// order — one total order that no shard layout can perturb.
//
// Routing the re-issues does not need that order (see stage), only
// their number N: the records before the horizon, a prefix of every
// sorted run. So the barrier runs two serial streams, on the worker
// pool when N reaches poolMin and inline otherwise: one refreshes the
// route table and stages the N picks, the other merges the runs and
// writes the k-th record's id to s.ids[k]. The ids are read only when
// the staged admissions are applied: by the shards' workers before
// the next epoch, or serially first if this barrier goes on to read
// live queues (a fault, probe or control step).
func (s *shardRun) processDone() {
	m := &s.merge
	m.runs = m.runs[:0]
	n := 0
	for i := range s.shards {
		run := s.shards[i].done
		p, _ := slices.BinarySearchFunc(run, s.c.horizon, func(r doneRec, h cycles.Cycles) int { return cmp.Compare(r.at, h) })
		m.runs = append(m.runs, run[:p])
		n += p
	}
	s.ids = grow(s.ids, n)
	if s.pool.Workers() > 1 && uint64(n) >= s.poolMin {
		s.splits++
		s.pool.Run(2, s.splitFn)
	} else {
		s.splitStream(0)
		s.splitStream(1)
	}
	s.admitted(0)
	for i := range s.shards {
		s.shards[i].done = s.shards[i].done[:0]
	}
}

// splitStream runs one of processDone's two streams. They share no
// state: stream 0 writes the table and the pend lists and reads only
// the length of s.ids; stream 1 writes the merge cursors and the
// elements of s.ids.
func (s *shardRun) splitStream(i int) {
	if i == 0 {
		s.table.refresh()
		s.stage(0)
		return
	}
	m := &s.merge
	m.reset()
	for k := range s.ids {
		s.ids[k] = m.next().id
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
				c.ob.smp.FeedN(t, c.ob.kArrive, 1)
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
				c.ob.smp.FeedN(t, c.ob.kArrive, 1)
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
	s.target = next
	if s.pool.Workers() <= 1 || last < s.poolMin {
		s.inline++
		for i := range s.engines {
			s.runShard(i)
		}
	} else {
		s.pooled++
		s.pool.Run(len(s.engines), s.runFn)
	}
}
