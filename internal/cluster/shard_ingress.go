package cluster

import (
	"slices"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// fleetIngress is the sharded engine's ingress tier: the same two-hop
// topology the single engine builds as an ingress.Graph (client → proxy
// service → fleet service), driven against epoch barriers so a
// 10k-replica fleet needs no central engine. The proxy queue lives on
// shard 0 and serves mid-epoch; everything cross-replica — routing an
// attempt, deciding a timeout, issuing a retry or hedge, completing a
// call — happens at barriers, in canonical event order, against the
// epoch route table. The ingress→fleet calls run on the same
// ingress.Lifecycle as the graph's; fleetIngress is its barrier seam,
// so only the timing is epoch-quantized, which is the sharded engine's
// documented model difference, not a function of the shard count.
//
// Steady state allocates nothing: calls live in the lifecycle's slot
// arena, timers on a private event engine, and the per-epoch event
// batch reuses one buffer.

// fdoneRec is one fleet-replica attempt completion, buffered by the
// owning shard until the barrier.
type fdoneRec struct {
	at    cycles.Cycles
	born  cycles.Cycles
	id    uint64
	cost  cycles.Cycles
	erred bool // gray completion: cycles burned, answer was an error
}

// pdoneRec is one proxy completion (shard 0 only).
type pdoneRec struct {
	at     cycles.Cycles
	client uint64
	born   cycles.Cycles
}

// Barrier event kinds extend the lifecycle's timer kinds, in tie-break
// order at one instant: timeout < hedge < retry < proxy done < fleet
// done. Timers fire before completions, so a deadline that lands
// exactly on a completion beats it — one fixed rule instead of the
// single engine's schedule-order race.
const (
	evProxyDone = ingress.KindRetry + 1 + iota
	evFleetDone
)

// fiEvent is one entry of a barrier's canonical batch.
type fiEvent struct {
	at    cycles.Cycles
	kind  uint8
	k     uint8
	erred bool // fleetDone: the replica answered with an error
	slot  int32
	gen   uint32
	cost  cycles.Cycles
	born  cycles.Cycles
	id    uint64 // timer or attempt id; proxyDone: the client request id
}

type fleetIngress struct {
	c    *Cluster
	core *ingress.Lifecycle

	route *ingress.Route // ingress→fleet, on the lifecycle
	entry *ingress.Route // client→ingress: the proxy hop, counted here

	proxyQ    *sim.Queue
	proxyCost cycles.Cycles
	proxyKA   int32 // entry-route keep-alive countdown on the proxy replica

	kaLeft     []int32       // fleet-route keep-alive countdown per replica
	attemptLat obs.Histogram // winning fleet attempts — arms the hedge delay

	proxyCompleted uint64
	waste          ingress.Waste

	// timers holds the pending lifecycle timers: each is a typed event
	// carrying its id and exact due time (the engine clamps a due time
	// before the last barrier to that barrier). The engine fires them
	// into the barrier's batch, whose canonical re-sort makes its fire
	// order within one instant irrelevant.
	timers   *sim.Engine
	timerRef sim.HandlerRef

	pdone  []pdoneRec
	events []fiEvent
}

func newFleetIngress(c *Cluster) *fleetIngress {
	route, entry, cores := c.ingressTier()
	fi := &fleetIngress{c: c, proxyCost: ingress.ProxyRequestCost(c.arch.rt), timers: sim.NewEngine()}
	// Attempts start at the barrier instant, so their timeouts are due
	// exactly Timeout after the engine's clock and ride a lane.
	fi.timers.DeclareDelay(route.Timeout)
	fi.timerRef = fi.timers.Register(fi)
	fi.core = ingress.NewLifecycle(fi)
	// Route numbers mirror buildIngress's edge order: 0 = ingress->fleet
	// (Connect), 1 = client->ingress (SetEntry); they are the trace
	// tracks too.
	fi.route = fi.core.NewRoute(route, &fi.attemptLat)
	fi.entry = fi.core.NewRoute(entry, nil)
	fi.proxyQ = sim.NewQueue(c.sh.engines[0], "ingress", cores)
	eng := c.sh.engines[0]
	fi.proxyQ.OnDone = func(j sim.Job) {
		fi.proxyCompleted++
		fi.pdone = append(fi.pdone, pdoneRec{at: eng.Now(), client: j.ID, born: j.Born})
	}
	// Fleet routing follows the route's balancer instead of the plain
	// front door's JSQ.
	c.sh.table.lb = route.LB
	if c.ob != nil {
		// The proxy queue emits into shard 0's outbox — it serves
		// mid-epoch there, and barrier-time admissions are serialized by
		// the worker handshake.
		fi.core.Observe(c.ob.cen)
		c.ob.rec.Label(obs.LayerIngress, 0, "ingress->fleet")
		c.ob.rec.Label(obs.LayerIngress, 1, "client->ingress")
		c.ob.traceQueue(fi.proxyQ, c.sh.shards[0].ob, 0, "ingress")
	}
	return fi
}

// admit enters one client request at a barrier instant (closed-loop
// seeding and re-issue; shard 0's engine is parked, so the proxy queue
// accepts directly).
func (fi *fleetIngress) admit(client uint64, now cycles.Cycles) {
	fi.clientArrive(sim.Job{ID: client, Born: now})
}

// clientArrive is the entry route: charge the connection regime and
// the proxy hop. It runs either mid-epoch on shard 0 (open-loop
// arrivals through the sink) or at a barrier (closed loop) — both touch
// only shard-0 state.
func (fi *fleetIngress) clientArrive(j sim.Job) {
	fi.entry.Begin()
	if fi.c.ob != nil {
		// The request span opens on the entry track; mid-epoch arrivals
		// run on shard 0's goroutine, so the record goes to its outbox.
		fi.c.sh.shards[0].ob.Emit(j.Born,
			obs.Key(obs.KindSpanBegin, obs.LayerIngress, obs.NameRequest, 1), j.ID, 0)
	}
	cost := fi.proxyCost + fi.entry.Handshake(&fi.proxyKA)
	fi.proxyQ.Arrive(sim.Job{ID: j.ID, Cost: cost, Born: j.Born})
}

// processEpoch is the barrier phase: merge the epoch's proxy
// completions, fleet attempt completions, and due timers into one
// canonical batch and process it. The sort key (at, kind, slot, gen,
// k, id) is a total order over distinct events, so the batch — and
// therefore every routing, retry, and hedging decision — is identical
// for any shard layout.
func (fi *fleetIngress) processEpoch() {
	now := fi.c.sh.now
	fi.events = fi.events[:0]
	fi.timers.Run(now) // due timers append themselves (HandleEvent)
	ev := fi.events
	for i := range fi.pdone {
		p := &fi.pdone[i]
		ev = append(ev, fiEvent{at: p.at, kind: evProxyDone, id: p.client, born: p.born})
	}
	fi.pdone = fi.pdone[:0]
	for i := range fi.c.sh.shards {
		ss := &fi.c.sh.shards[i]
		for _, f := range ss.fdone {
			_, slot, gen, k := ingress.DecodeID(f.id)
			ev = append(ev, fiEvent{at: f.at, kind: evFleetDone, k: k, erred: f.erred, slot: slot, gen: gen, cost: f.cost, born: f.born, id: f.id})
		}
		ss.fdone = ss.fdone[:0]
	}
	slices.SortFunc(ev, func(a, b fiEvent) int {
		switch {
		case a.at != b.at:
			if a.at < b.at {
				return -1
			}
			return 1
		case a.kind != b.kind:
			return int(a.kind) - int(b.kind)
		case a.slot != b.slot:
			return int(a.slot) - int(b.slot)
		case a.gen != b.gen:
			if a.gen < b.gen {
				return -1
			}
			return 1
		case a.k != b.k:
			return int(a.k) - int(b.k)
		case a.id != b.id:
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return 0
	})
	for i := range ev {
		e := &ev[i]
		switch e.kind {
		case evProxyDone:
			// The proxy hop completed: open the ingress→fleet call.
			fi.core.Start(fi.route, ingress.Owner{Parent: -1, Client: e.id, Origin: e.born}, now)
		case evFleetDone:
			j := sim.Job{ID: e.id, Cost: e.cost, Born: e.born}
			if slot := fi.core.Resolve(j, e.at, &fi.waste); slot >= 0 && fi.core.Answer(slot, j, e.at, e.erred) {
				fi.core.Finish(slot, e.at, true)
			}
		default:
			fi.core.Fire(e.id, e.at, now)
		}
	}
	fi.events = ev[:0]
}

// Rand is the routing stream: breaker probes draw from it, like the
// single-engine graph's.
func (fi *fleetIngress) Rand() *sim.Rand { return fi.c.sh.table.rng }

func (fi *fleetIngress) Pick(*ingress.Route) int { return fi.c.sh.table.pick() }

func (fi *fleetIngress) PickOther(_ *ingress.Route, avoid int) int {
	return fi.c.sh.table.pickOther(avoid)
}

// Backlog reads the epoch route table: effective depth (barrier
// snapshot + this barrier's assignments) over the routable fleet, kept
// as a running sum.
func (fi *fleetIngress) Backlog(*ingress.Route) (depth, up int) {
	t := fi.c.sh.table
	return t.sum, len(t.ups)
}

// Send enqueues the attempt at the barrier instant; a partitioned
// replica's attempt is lost in the network.
func (fi *fleetIngress) Send(r *ingress.Route, bi int, j sim.Job) {
	ct := fi.c.containers[bi]
	if ct.partitioned {
		return
	}
	for len(fi.kaLeft) <= bi {
		fi.kaLeft = append(fi.kaLeft, 0)
	}
	j.Cost = fi.c.costOf(ct) + r.Handshake(&fi.kaLeft[bi])
	ct.q.Arrive(j)
}

// Arm schedules a lifecycle timer; the job carries its id and its
// exact due time.
func (fi *fleetIngress) Arm(due cycles.Cycles, id uint64) {
	fi.timers.ScheduleAt(due, fi.timerRef, sim.Job{ID: id, Born: due})
}

// HandleEvent appends one due timer to the barrier's batch at its
// exact due time.
func (fi *fleetIngress) HandleEvent(_ *sim.Engine, j sim.Job) {
	kind, slot, gen, k := ingress.DecodeID(j.ID)
	fi.events = append(fi.events, fiEvent{at: j.Born, kind: kind, k: k, slot: slot, gen: gen, id: j.ID})
}

// FailEarly fails the call inline: barriers process a flat batch, so
// there is no caller to re-enter.
func (fi *fleetIngress) FailEarly(slot int32, _ uint32) {
	fi.core.Finish(slot, fi.c.sh.now, false)
}

// Done finishes the request: entry-route accounting, the cluster's
// root-request accounting (Cluster.rootDone), the request span's end,
// and the closed-loop re-issue.
func (fi *fleetIngress) Done(_ *ingress.Route, w ingress.Owner, at cycles.Cycles, ok bool) {
	c := fi.c
	lat := at - w.Origin
	fi.entry.End(lat, ok)
	reissue := c.rootDone(at, lat, ok)
	if o := c.ob; o != nil {
		var fail uint64
		if !ok {
			fail = 1
		}
		o.cen.Emit(at,
			obs.Key(obs.KindSpanEnd, obs.LayerIngress, obs.NameRequest, 1), w.Client, fail)
	}
	if reissue {
		fi.admit(w.Client, c.sh.now)
	}
}

// routeStats mirrors Graph.RouteStats for the cluster topology: the
// ingress→fleet route, then the client entry route (Connect before
// SetEntry, as buildIngress orders them).
func (fi *fleetIngress) routeStats() []ingress.RouteStats {
	return []ingress.RouteStats{fi.route.Stats("ingress->fleet"), fi.entry.Stats("client->ingress")}
}

// serviceStats mirrors Graph.ServiceStats: the proxy service, then the
// fleet service averaged over every replica ever placed (retired ones
// included, like the graph's backend list).
func (fi *fleetIngress) serviceStats(horizon cycles.Cycles) []ingress.ServiceStats {
	var fleetCompl uint64
	for i := range fi.c.sh.shards {
		fleetCompl += fi.c.sh.shards[i].fleetCompleted
	}
	cts := fi.c.containers
	return []ingress.ServiceStats{
		ingress.NewServiceStats("ingress", fi.proxyCompleted, nil, horizon, 1,
			func(int) *sim.Queue { return fi.proxyQ }),
		ingress.NewServiceStats("fleet", fleetCompl, &fi.waste, horizon, len(cts),
			func(i int) *sim.Queue { return cts[i].q }),
	}
}
