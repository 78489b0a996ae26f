package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// frame is one activation of a service's outgoing edges on behalf of a
// winning call: the cursor of a sequential chain or the join counter
// of a fan-out. Same arena discipline as calls.
type frame struct {
	gen     uint32
	callRef int32 // owning call slot
	svc     int32
	next    int32 // sequential: index of the edge in flight
	pending int32 // fan-out: children not yet joined
	failed  bool
}

// Graph is a service graph on one engine: services, edges, the client
// entry route, and the arenas every in-flight request tree lives in.
// Calls run on the shared Lifecycle, which the graph drives through
// its engine seam (graphSeam); the graph itself keeps the frames that
// chain and fan out a winning call's downstream edges. It implements
// sim.Handler for its own timer events.
type Graph struct {
	eng  *sim.Engine
	rng  *sim.Rand
	ref  sim.HandlerRef
	core *Lifecycle

	services []*Service
	edges    []*Edge
	entry    *Edge

	frames    []frame
	frameFree []int32

	// OnRootDone, when set, observes every root-call completion: the
	// request id, end-to-end latency, and whether the request
	// succeeded. Closed-loop drivers re-admit from here.
	OnRootDone func(client uint64, lat cycles.Cycles, ok bool)

	// obsSink, when set via Observe, receives trace records: request
	// spans here, attempt spans, robustness instants and retry-budget
	// counters from the lifecycle. Every emission guards on the nil, so
	// an unobserved graph pays one branch.
	obsSink obs.Sink

	admitted uint64
	served   uint64
	failed   uint64
}

// NewGraph creates an empty graph on eng with its own seeded random
// stream (load-balancer sampling and cache coins).
func NewGraph(eng *sim.Engine, seed uint64) *Graph {
	g := &Graph{eng: eng, rng: sim.NewRand(seed)}
	g.ref = eng.Register(g)
	g.core = NewLifecycle((*graphSeam)(g))
	return g
}

// AddService adds a named service with the given downstream call mode.
func (g *Graph) AddService(name string, mode CallMode) *Service {
	s := &Service{g: g, idx: int32(len(g.services)), name: name, mode: mode}
	g.services = append(g.services, s)
	return s
}

// Connect routes calls from one service into another under pol. hit is
// the edge's cache behaviour (see Edge.hit); 0 for a hard dependency.
func (g *Graph) Connect(from, to *Service, pol RoutePolicy, hit float64) *Edge {
	e := &Edge{Route: g.core.NewRoute(pol, &to.attemptLat), g: g, from: from, to: to, hit: hit}
	g.declareTimers(e.Route)
	g.edges = append(g.edges, e)
	from.edges = append(from.edges, e)
	return e
}

// SetEntry installs the client→root route every admitted request
// enters through, replacing any previous entry.
func (g *Graph) SetEntry(root *Service, pol RoutePolicy) *Edge {
	e := &Edge{Route: g.core.NewRoute(pol, &root.attemptLat), g: g, to: root}
	g.declareTimers(e.Route)
	g.edges = append(g.edges, e)
	g.entry = e
	return e
}

// declareTimers gives the engine a fixed-delay lane for each constant
// timer delay of r: the attempt timeout and every rung of the backoff
// ladder (at most maxRetries). Hedge delays track a live quantile and
// stay on the heap.
func (g *Graph) declareTimers(r *Route) {
	p := &r.pol
	g.eng.DeclareDelay(p.Timeout)
	for i := 0; i < p.Retries; i++ {
		g.eng.DeclareDelay(min(p.Backoff<<i, p.BackoffCap))
	}
}

// Entry returns the client→root edge.
func (g *Graph) Entry() *Edge { return g.entry }

// Reseed replaces the graph's random stream. Orchestrators build the
// topology at construction time but only learn the run's seed at
// traffic time; Reseed before the first Admit keeps runs reproducible.
func (g *Graph) Reseed(seed uint64) { g.rng = sim.NewRand(seed) }

// Observe points the graph's trace instrumentation at sink and, when
// rec is non-nil, labels each edge's track with its route name. Call
// after the topology is complete and before traffic; a nil sink turns
// instrumentation back off. Span pairing rides the attempt's job id
// (slot|gen|attempt), so begin/end records match without any lookup.
func (g *Graph) Observe(sink obs.Sink, rec *obs.Recorder) {
	g.obsSink = sink
	g.core.Observe(sink)
	if rec != nil {
		for _, e := range g.edges {
			rec.Label(obs.LayerIngress, uint32(e.id), e.Name())
		}
	}
}

// Admitted, Served, and Failed count root requests: admitted into the
// graph, completed successfully (goodput), and completed failed.
func (g *Graph) Admitted() uint64 { return g.admitted }
func (g *Graph) Served() uint64   { return g.served }
func (g *Graph) Failed() uint64   { return g.failed }

// Admit injects one client request at the current virtual instant.
func (g *Graph) Admit(client uint64) {
	g.admitted++
	now := g.eng.Now()
	if g.obsSink != nil {
		g.obsSink.Emit(now,
			obs.Key(obs.KindSpanBegin, obs.LayerIngress, obs.NameRequest, uint32(g.entry.id)), client, 0)
	}
	g.core.Start(g.entry.Route, Owner{Parent: -1, Client: client, Origin: now}, now)
}

// startChild opens a call on e for frame fslot.
func (g *Graph) startChild(e *Edge, fslot int32, fgen uint32) {
	g.core.Start(e.Route, Owner{Parent: fslot, ParentGen: fgen}, g.eng.Now())
}

// attemptDone is every backend queue's completion hook: j finished at
// replica bi of s. If the call is still racing and this attempt is
// live, the response wins; otherwise the cycles were wasted — the
// request timed out, was retried elsewhere, or a hedge twin won.
func (g *Graph) attemptDone(s *Service, bi int, j sim.Job) {
	s.completions++
	now := g.eng.Now()
	slot := g.core.Resolve(j, now, &s.waste)
	if slot < 0 {
		return
	}
	c := &g.core.calls[slot]
	if c.Parent >= 0 {
		if f := &g.frames[c.Parent]; f.gen != c.ParentGen || f.failed {
			// The caller's frame already failed (a sibling hard
			// dependency died) or moved on: this completion bought
			// nothing.
			g.core.Abandon(slot, j, now, &s.waste)
			return
		}
	}
	// Gray failure: the replica burned the cycles but answered with an
	// error. The coin is drawn only for an answer someone still wants.
	b := s.backends[bi]
	if !g.core.Answer(slot, j, now, b.errRate > 0 && b.errRng.Float64() < b.errRate) {
		return
	}
	if to := g.edges[c.route].to; len(to.edges) > 0 {
		g.openFrame(slot, to)
		return
	}
	g.core.Finish(slot, now, true)
}

// openFrame starts the winning call's downstream edges.
func (g *Graph) openFrame(callSlot int32, svc *Service) {
	fslot := g.allocFrame()
	f := &g.frames[fslot]
	fgen := f.gen
	f.callRef = callSlot
	f.svc = svc.idx
	f.next = 0
	f.pending = 0
	f.failed = false
	switch svc.mode {
	case Sequential:
		g.startChild(svc.edges[0], fslot, fgen)
	case FanOut:
		// Draw every skip coin before issuing so a child cannot join
		// (asynchronously) against a half-counted pending.
		var issue uint64
		for i, e := range svc.edges {
			if e.hit > 0 && g.rng.Float64() < e.hit {
				continue
			}
			issue |= 1 << uint(i)
			f.pending++
		}
		if f.pending == 0 {
			g.finishFrame(fslot)
			return
		}
		for i, e := range svc.edges {
			if issue&(1<<uint(i)) != 0 {
				g.startChild(e, fslot, fgen)
			}
		}
	}
}

// frameChildDone joins one finished child call into its frame.
func (g *Graph) frameChildDone(fslot int32, fgen uint32, childEdge *Edge, ok bool) {
	f := &g.frames[fslot]
	if f.gen != fgen {
		return
	}
	svc := g.services[f.svc]
	soft := childEdge.hit > 0 // degraded cache, not a hard dependency
	switch svc.mode {
	case Sequential:
		if !ok && !soft {
			f.failed = true
			g.finishFrame(fslot)
			return
		}
		if ok && soft && g.rng.Float64() < childEdge.hit {
			g.finishFrame(fslot) // tiered-cache hit short-circuits the rest
			return
		}
		f.next++
		if int(f.next) < len(svc.edges) {
			g.startChild(svc.edges[f.next], fslot, fgen)
			return
		}
		g.finishFrame(fslot)
	case FanOut:
		if !ok && !soft {
			f.failed = true
		}
		f.pending--
		if f.pending == 0 {
			g.finishFrame(fslot)
		}
	}
}

// finishFrame completes the frame's owning call.
func (g *Graph) finishFrame(fslot int32) {
	f := &g.frames[fslot]
	callSlot, ok := f.callRef, !f.failed
	g.freeFrame(fslot)
	g.core.Finish(callSlot, g.eng.Now(), ok)
}

// HandleEvent dispatches the graph's timer events to the lifecycle.
func (g *Graph) HandleEvent(_ *sim.Engine, j sim.Job) {
	now := g.eng.Now()
	g.core.Fire(j.ID, now, now)
}

// AttemptLost reports that a queued attempt was dropped before service
// (a crashed node's backlog): the attempt dies immediately, as if its
// timeout had fired, and the call retries or fails under its policy.
func (g *Graph) AttemptLost(j sim.Job) { g.core.Lost(j, g.eng.Now()) }

func (g *Graph) allocFrame() int32 {
	if n := len(g.frameFree); n > 0 {
		slot := g.frameFree[n-1]
		g.frameFree = g.frameFree[:n-1]
		return slot
	}
	g.frames = append(g.frames, frame{})
	return int32(len(g.frames) - 1)
}

func (g *Graph) freeFrame(slot int32) {
	f := &g.frames[slot]
	f.gen = (f.gen + 1) & idGenMask
	g.frameFree = append(g.frameFree, slot)
}

// graphSeam is the Graph as the lifecycle's engine: immediate picks
// over live backend queues, sim-event timers, and failures deferred
// through the event loop.
type graphSeam Graph

func (s *graphSeam) Rand() *sim.Rand                   { return s.rng }
func (s *graphSeam) Pick(r *Route) int                 { return s.edges[r.id].pick() }
func (s *graphSeam) PickOther(r *Route, avoid int) int { return s.edges[r.id].pickOther(avoid) }
func (s *graphSeam) Backlog(r *Route) (int, int)       { return s.edges[r.id].backlog() }

func (s *graphSeam) Send(r *Route, bi int, j sim.Job) {
	if b := s.edges[r.id].to.backends[bi]; !b.unreachable {
		j.Cost = b.cost + r.Handshake(&b.kaLeft)
		b.q.Arrive(j)
	}
}

func (s *graphSeam) Arm(due cycles.Cycles, id uint64) { s.eng.ScheduleAt(due, s.ref, sim.Job{ID: id}) }

// FailEarly defers the failure through the event loop: failing
// synchronously would re-enter the parent frame mid-issue.
func (s *graphSeam) FailEarly(slot int32, gen uint32) {
	s.eng.Schedule(0, s.ref, sim.Job{ID: encodeID(kindFail, slot, gen, 0)})
}

// Done propagates a finished call to its parent frame or, at the root,
// to the traffic source.
func (s *graphSeam) Done(r *Route, o Owner, at cycles.Cycles, ok bool) {
	g := (*Graph)(s)
	if o.Parent >= 0 {
		g.frameChildDone(o.Parent, o.ParentGen, g.edges[r.id], ok)
		return
	}
	if ok {
		g.served++
	} else {
		g.failed++
	}
	if g.obsSink != nil {
		var fail uint64
		if !ok {
			fail = 1
		}
		g.obsSink.Emit(at,
			obs.Key(obs.KindSpanEnd, obs.LayerIngress, obs.NameRequest, uint32(r.id)), o.Client, fail)
	}
	if g.OnRootDone != nil {
		g.OnRootDone(o.Client, at-o.Origin, ok)
	}
}
