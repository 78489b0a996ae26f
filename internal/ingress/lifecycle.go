package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// The call lifecycle is the one implementation of a route's call
// semantics, driven by both engines: the single-engine Graph, which
// handles every timer and completion the instant it fires, and the
// sharded cluster's fleet ingress, which batches them at epoch
// barriers. A call races attempts — per-attempt timeouts, capped
// backoff retries under a retry budget, one quantile-armed hedge —
// until an answer wins or the call fails, with the route's breaker,
// shed valve and keep-alive charge on the same path. What the engines
// do differently (choosing a replica, enqueueing, arming a timer,
// failing a call that never reached a replica, handing a finished call
// back) goes through the Seam.

// Event and queue-job IDs pack everything a completion or timer needs
// to find its call again — and to detect that the call has moved on:
//
//	bits  0..23  call slot in the arena
//	bits 24..47  call generation at issue time
//	bits 48..55  attempt index within the call
//	bits 56..59  event kind
//
// A completion or timer whose generation no longer matches the slot's
// is stale — the call it belonged to finished and the slot was reused —
// and is accounted as wasted work instead of being dispatched.
const (
	idSlotBits = 24
	idGenBits  = 24
	idSlotMask = 1<<idSlotBits - 1
	idGenMask  = 1<<idGenBits - 1

	kindAttempt = 0 // queue job: one attempt in service at a replica
	// KindTimeout, KindHedge and KindRetry are the timers a lifecycle
	// arms through Seam.Arm: a per-attempt deadline, the hedge trigger,
	// and a backoff expiry. They are numbered in the order a batching
	// scheduler fires them at one instant.
	KindTimeout = 1
	KindHedge   = 2
	KindRetry   = 3
	kindFail    = 4 // the Graph's deferred early failure (Seam.FailEarly)
)

func encodeID(kind uint8, slot int32, gen uint32, attempt uint8) uint64 {
	return uint64(kind)<<56 | uint64(attempt)<<48 | uint64(gen&idGenMask)<<idSlotBits | uint64(uint32(slot)&idSlotMask)
}

// DecodeID unpacks an attempt job's or a timer's id.
func DecodeID(id uint64) (kind uint8, slot int32, gen uint32, attempt uint8) {
	return uint8(id >> 56), int32(id & idSlotMask), uint32(id>>idSlotBits) & idGenMask, uint8(id >> 48)
}

// Call lifecycle: racing (attempts, timeouts, retries, hedges compete
// to produce the first response) → subtree (the engine owns the winner,
// e.g. while downstream edges run) → freed. Timers and completions
// carry the state they expect; anything arriving late is ignored or
// counted as waste.
const (
	stateFree uint8 = iota
	stateRacing
	stateSubtree
)

const noHedge = 0xff

// Seam is what an engine supplies to the lifecycle. Every method runs
// on the lifecycle's goroutine, in the engine's event order.
//
// The engine also supplies the clock at each entry point: now is the
// instant calls start and attempts issue, which for a batching engine
// can be later than the instant at which the event being handled
// happened.
type Seam interface {
	// Rand is the routing stream; half-open breaker probes draw from it.
	Rand() *sim.Rand
	// Pick chooses a replica of r's target for a fresh attempt, or -1
	// when none is routable; PickOther prefers one other than avoid —
	// the hedge target.
	Pick(r *Route) int
	PickOther(r *Route, avoid int) int
	// Backlog is the total queue depth over the up replicas of r's
	// target, and how many are up — what the shed valve weighs.
	Backlog(r *Route) (depth, up int)
	// Send enqueues attempt j at replica bi, adding the replica's cost
	// and r.Handshake to j.Cost. A replica partitioned from the tier
	// drops it: only the attempt's timeout reaps it.
	Send(r *Route, bi int, j sim.Job)
	// Arm schedules timer id to fire at due; the engine hands it back
	// through Fire.
	Arm(due cycles.Cycles, id uint64)
	// FailEarly fails a call that never reached a replica (breaker
	// fast-fail, shed, nothing routable) by calling Finish — at once,
	// or through the event loop where failing synchronously would
	// re-enter the caller.
	FailEarly(slot int32, gen uint32)
	// Done receives a finished call's owner at its completion instant;
	// the call's slot is already free.
	Done(r *Route, o Owner, at cycles.Cycles, ok bool)
}

// Owner identifies who waits on a call. The lifecycle carries it
// untouched and hands it back through Seam.Done.
type Owner struct {
	Parent    int32         // caller's frame slot, -1 for a root call
	ParentGen uint32        // the frame's generation at issue
	Client    uint64        // root calls: the traffic source's request id
	Origin    cycles.Cycles // root calls: the client's admission instant
}

// call is one in-flight invocation of a route. Calls live in a slot
// arena with a free list; the struct is pointer-free so steady-state
// traffic costs the garbage collector nothing.
type call struct {
	Owner
	gen       uint32
	route     int32
	born      cycles.Cycles // call start: the route latency's base
	state     uint8
	attempt   uint8  // attempts issued so far
	retries   uint8  // retries consumed (hedges are not retries)
	hedgeIdx  uint8  // attempt index of the hedge, noHedge if none
	liveMask  uint16 // bit per attempt still eligible to win
	pendRetry bool   // a backoff timer is pending; no attempt is live
	brSkip    bool   // fast-failed before issue; not a breaker outcome
	lastBE    int32  // replica of the newest attempt (the hedge avoids it)
}

// Route is one edge's policy and accounting: the normalized policy,
// breaker and retry budget the lifecycle consults, and the counters and
// latency histogram it reports.
type Route struct {
	id     int32 // index in the lifecycle; also the route's trace track
	pol    RoutePolicy
	br     *Breaker // nil unless the policy arms the circuit breaker
	budget float64

	// attemptLat observes winning attempts' service-phase latency at the
	// route's target (attempt issue → replica completion, queueing
	// included) — the basis for hedge delays. Routes into one target
	// share it.
	attemptLat *obs.Histogram

	// lat observes successful full-call latency (call start →
	// completion, downstream subtree included) — the reported
	// percentiles.
	lat obs.Histogram

	calls        uint64
	completed    uint64
	failed       uint64
	retries      uint64
	timeouts     uint64
	lost         uint64 // attempts lost with a dead backlog, retried like timeouts
	hedges       uint64
	hedgeWins    uint64
	budgetDenied uint64
	noBackend    uint64
	handshakes   uint64
	errors       uint64 // gray-failure attempt errors at this route's target
	shed         uint64 // calls failed fast by the overload valve
}

// Begin and End count a call the engine drives itself (a proxy hop):
// Begin at admission, End with its latency and outcome.
func (r *Route) Begin() { r.calls++ }

func (r *Route) End(lat cycles.Cycles, ok bool) {
	if ok {
		r.completed++
		r.lat.Observe(lat)
	} else {
		r.failed++
	}
}

// Handshake is the connection charge of one request on r at a replica
// whose open connection has *ka requests left: ConnSetup every request
// without keep-alive, once per KeepAliveReqs with it.
func (r *Route) Handshake(ka *int32) cycles.Cycles {
	if r.pol.ConnSetup == 0 {
		return 0
	}
	if r.pol.KeepAlive {
		if *ka > 0 {
			*ka--
			return 0
		}
		*ka = int32(r.pol.KeepAliveReqs) - 1
	}
	r.handshakes++
	return r.pol.ConnSetup
}

// hedgeDelay is the armed hedge trigger: the target's observed HedgeP
// attempt-latency quantile, or 0 when hedging is off or still warming
// up.
func (r *Route) hedgeDelay() cycles.Cycles {
	if r.pol.HedgeP <= 0 || r.attemptLat.Count() < hedgeMinSamples {
		return 0
	}
	return r.attemptLat.Quantile(r.pol.HedgeP)
}

// overloaded is the shed predicate: the target's backlog spread over
// its up replicas exceeds ShedDepth.
func (r *Route) overloaded(depth, up int) bool {
	return up > 0 && depth > r.pol.ShedDepth*up
}

// Stats snapshots the route's report section under name.
func (r *Route) Stats(name string) RouteStats {
	st := RouteStats{
		Route:     name,
		Calls:     r.calls,
		Completed: r.completed,
		Failed:    r.failed,

		Retries:      r.retries,
		Timeouts:     r.timeouts,
		Lost:         r.lost,
		Hedges:       r.hedges,
		HedgeWins:    r.hedgeWins,
		BudgetDenied: r.budgetDenied,
		NoBackend:    r.noBackend,
		Handshakes:   r.handshakes,

		Errors: r.errors,
		Shed:   r.shed,

		MeanUS: r.lat.MeanMicros(),
		P50US:  r.lat.Quantile(0.50).Micros(),
		P95US:  r.lat.Quantile(0.95).Micros(),
		P99US:  r.lat.Quantile(0.99).Micros(),
		MaxUS:  r.lat.Max().Micros(),
	}
	if r.br != nil {
		st.BreakerOpens = r.br.Opens()
		st.BreakerFastFails = r.br.FastFails()
	}
	return st
}

// Waste is a replica set's account of completions nobody was waiting
// for any more: the call timed out, was retried elsewhere, lost its
// hedge race, or its caller already failed. The latencies stay out of
// the route histograms: a hedge loser's slow finish is capacity
// accounting, not request experience, and folding it into p99 would
// indict hedging for the very tail it removed.
type Waste struct {
	n      uint64
	cycles cycles.Cycles
	lat    obs.Histogram
}

// Lifecycle owns the call arena and the routes calls run on.
type Lifecycle struct {
	seam   Seam
	sink   obs.Sink // nil = unobserved; every emission guards on it
	routes []*Route
	calls  []call
	free   []int32
}

// NewLifecycle creates an empty lifecycle driven through s.
func NewLifecycle(s Seam) *Lifecycle { return &Lifecycle{seam: s} }

// Observe points the lifecycle's trace emissions at sink (nil = off):
// attempt spans and robustness instants on each route's track, retry
// budget and wasted-work counters.
func (co *Lifecycle) Observe(sink obs.Sink) { co.sink = sink }

// NewRoute registers a route under pol (normalized here). Routes are
// numbered in registration order; the number is the route's trace
// track. attemptLat is the target's winning-attempt histogram.
func (co *Lifecycle) NewRoute(pol RoutePolicy, attemptLat *obs.Histogram) *Route {
	r := &Route{id: int32(len(co.routes)), pol: pol.normalized(), attemptLat: attemptLat}
	r.br = NewBreaker(r.pol)
	co.routes = append(co.routes, r)
	return r
}

func (co *Lifecycle) emit(at cycles.Cycles, k obs.Kind, name uint16, track int32, a, b uint64) {
	co.sink.Emit(at, obs.Key(k, obs.LayerIngress, name, uint32(track)), a, b)
}

// Start opens a call on r for o at now and issues its first attempt,
// unless the breaker or the shed valve fails it fast.
func (co *Lifecycle) Start(r *Route, o Owner, now cycles.Cycles) {
	r.calls++
	if r.pol.RetryBudget > 0 {
		r.budget = min(r.budget+r.pol.RetryBudget, retryBudgetCap)
		if co.sink != nil {
			co.emit(now, obs.KindCounter, obs.NameBudget, r.id, uint64(r.budget*1000), 0)
		}
	}
	slot := co.alloc()
	c := &co.calls[slot]
	c.Owner = o
	c.route = r.id
	c.born = now
	c.state = stateRacing
	c.attempt = 0
	c.retries = 0
	c.hedgeIdx = noHedge
	c.liveMask = 0
	c.pendRetry = false
	c.brSkip = false
	c.lastBE = -1
	if r.br != nil && !r.br.Admit(now, co.seam.Rand()) {
		// Breaker fast failure: no replica cycles spent, and no outcome
		// fed back (the call never touched a replica).
		c.brSkip = true
		co.seam.FailEarly(slot, c.gen)
		return
	}
	if r.pol.ShedDepth > 0 && r.overloaded(co.seam.Backlog(r)) {
		r.shed++
		c.brSkip = true
		co.seam.FailEarly(slot, c.gen)
		return
	}
	co.issue(slot, now)
}

// issue sends the call's next attempt, at now, to a replica the seam
// picks. Only the no-live-attempt paths (first attempt, retry) may call
// it: with nothing routable the call fails.
func (co *Lifecycle) issue(slot int32, now cycles.Cycles) {
	c := &co.calls[slot]
	r := co.routes[c.route]
	bi := co.seam.Pick(r)
	if bi < 0 {
		r.noBackend++
		c.brSkip = true // not a breaker outcome
		co.seam.FailEarly(slot, c.gen)
		return
	}
	co.issueTo(slot, bi, now)
}

// issueTo commits one attempt to replica bi at now and arms its timeout
// and, on the first attempt, the hedge.
func (co *Lifecycle) issueTo(slot int32, bi int, now cycles.Cycles) {
	c := &co.calls[slot]
	r := co.routes[c.route]
	k := c.attempt
	c.attempt++
	c.liveMask |= 1 << k
	c.lastBE = int32(bi)
	id := encodeID(kindAttempt, slot, c.gen, k)
	if co.sink != nil {
		co.emit(now, obs.KindSpanBegin, obs.NameAttempt, r.id, id, 0)
	}
	co.seam.Send(r, bi, sim.Job{ID: id, Born: now})
	if r.pol.Timeout > 0 {
		co.seam.Arm(now+r.pol.Timeout, encodeID(KindTimeout, slot, c.gen, k))
	}
	if k == 0 {
		if d := r.hedgeDelay(); d > 0 {
			co.seam.Arm(now+d, encodeID(KindHedge, slot, c.gen, 0))
		}
	}
}

// Fire handles timer id, due at `at`, with attempts issuing at now.
// Every branch re-validates generation and state: by the time a timer
// fires, its call may have completed, failed, or been reused.
func (co *Lifecycle) Fire(id uint64, at, now cycles.Cycles) {
	kind, slot, gen, k := DecodeID(id)
	c := &co.calls[slot]
	if c.gen != gen || c.state != stateRacing {
		return
	}
	r := co.routes[c.route]
	switch kind {
	case KindTimeout:
		if c.liveMask&(1<<k) == 0 {
			return
		}
		c.liveMask &^= 1 << k
		r.timeouts++
		if co.sink != nil {
			co.emit(at, obs.KindInstant, obs.NameTimeout, r.id, encodeID(kindAttempt, slot, gen, k), 0)
		}
		if c.liveMask != 0 {
			return // a hedge twin is still racing
		}
		co.retry(slot, at)
	case KindRetry:
		if !c.pendRetry {
			return
		}
		c.pendRetry = false
		co.issue(slot, now)
	case KindHedge:
		if c.hedgeIdx != noHedge || c.liveMask == 0 {
			return // already hedged, or primary gone (retry pending)
		}
		bi := co.seam.PickOther(r, int(c.lastBE))
		if bi < 0 {
			return // nothing to hedge to; the primary races on alone
		}
		c.hedgeIdx = c.attempt
		r.hedges++
		if co.sink != nil {
			co.emit(at, obs.KindInstant, obs.NameHedge, r.id, encodeID(kindAttempt, slot, gen, c.attempt), 0)
		}
		co.issueTo(slot, bi, now)
	case kindFail:
		co.Finish(slot, at, false)
	}
}

// retry decides a call's fate at `at`, after its last live attempt
// died: retry under the ladder and budget, or fail.
func (co *Lifecycle) retry(slot int32, at cycles.Cycles) {
	c := &co.calls[slot]
	r := co.routes[c.route]
	if int(c.retries) >= r.pol.Retries {
		co.Finish(slot, at, false)
		return
	}
	if r.pol.RetryBudget > 0 {
		if r.budget < 1 {
			r.budgetDenied++
			if co.sink != nil {
				co.emit(at, obs.KindInstant, obs.NameBudgetDenied, r.id, uint64(uint32(slot)), 0)
			}
			co.Finish(slot, at, false)
			return
		}
		r.budget--
	}
	c.retries++
	r.retries++
	if co.sink != nil {
		co.emit(at, obs.KindInstant, obs.NameRetry, r.id, encodeID(kindAttempt, slot, c.gen, c.retries), 0)
		if r.pol.RetryBudget > 0 {
			co.emit(at, obs.KindCounter, obs.NameBudget, r.id, uint64(r.budget*1000), 0)
		}
	}
	backoff := min(r.pol.Backoff<<(c.retries-1), r.pol.BackoffCap)
	c.pendRetry = true
	co.seam.Arm(at+backoff, encodeID(KindRetry, slot, c.gen, 0))
}

// attemptDied retires attempt k after it timed out, errored or was
// lost; with nothing left racing and no retry pending, the call retries
// or fails.
func (co *Lifecycle) attemptDied(slot int32, k uint8, at cycles.Cycles) {
	c := &co.calls[slot]
	c.liveMask &^= 1 << k
	if c.liveMask == 0 && !c.pendRetry {
		co.retry(slot, at)
	}
}

// Resolve settles attempt job j, completed at `at`, against its call:
// it returns the call's slot if the answer can still win, or -1 after
// accounting the completion into w.
func (co *Lifecycle) Resolve(j sim.Job, at cycles.Cycles, w *Waste) int32 {
	kind, slot, gen, k := DecodeID(j.ID)
	if kind != kindAttempt || int(slot) >= len(co.calls) {
		// A job the lifecycle never issued (work injected directly into
		// a shared queue) — capacity it consumed, but nobody waits.
		co.waste(w, j, at, -1)
		return -1
	}
	if c := &co.calls[slot]; c.gen != gen || c.state != stateRacing || c.liveMask&(1<<k) == 0 {
		// The loser's span ends flagged wasted. Its call slot may already
		// serve another request, so the route is unattributable — waste
		// lands on track 0, service-level.
		co.waste(w, j, at, 0)
		return -1
	}
	return slot
}

// Abandon wastes a resolved answer whose caller no longer needs it and
// fails the call, so a doomed fan-out fans no further work out.
func (co *Lifecycle) Abandon(slot int32, j sim.Job, at cycles.Cycles, w *Waste) {
	c := &co.calls[slot]
	co.waste(w, j, at, c.route)
	c.liveMask = 0
	co.Finish(slot, at, false)
}

// waste accounts completion j into w; track >= 0 also ends the
// attempt's span there, flagged wasted (B = 1).
func (co *Lifecycle) waste(w *Waste, j sim.Job, at cycles.Cycles, track int32) {
	w.n++
	w.cycles += j.Cost
	w.lat.Observe(at - j.Born)
	if co.sink != nil {
		if track >= 0 {
			co.emit(at, obs.KindSpanEnd, obs.NameAttempt, track, j.ID, 1)
		}
		co.emit(at, obs.KindCounter, obs.NameWasted, 0, uint64(at-j.Born), 0)
	}
}

// Answer applies a resolved attempt's response. erred is a gray
// failure: the replica burned the cycles but answered with an error, so
// the attempt dies like a timeout would and Answer returns false. A
// good answer wins the race: the call leaves the racing state, and the
// engine finishes it or runs its subtree first.
func (co *Lifecycle) Answer(slot int32, j sim.Job, at cycles.Cycles, erred bool) bool {
	c := &co.calls[slot]
	r := co.routes[c.route]
	k := uint8(j.ID >> 48)
	if erred {
		r.errors++
		if co.sink != nil {
			co.emit(at, obs.KindSpanEnd, obs.NameAttempt, r.id, j.ID, 3) // flagged errored
		}
		co.attemptDied(slot, k, at)
		return false
	}
	r.attemptLat.Observe(at - j.Born)
	if co.sink != nil {
		co.emit(at, obs.KindSpanEnd, obs.NameAttempt, r.id, j.ID, 0)
	}
	if k == c.hedgeIdx {
		r.hedgeWins++
	}
	c.liveMask = 0
	c.state = stateSubtree
	return true
}

// Lost reports that queued attempt j was dropped before service (a
// crashed node's backlog) at now: the attempt dies at once, as if its
// timeout had fired.
func (co *Lifecycle) Lost(j sim.Job, now cycles.Cycles) {
	kind, slot, gen, k := DecodeID(j.ID)
	if kind != kindAttempt || int(slot) >= len(co.calls) {
		return
	}
	c := &co.calls[slot]
	if c.gen != gen || c.state != stateRacing || c.liveMask&(1<<k) == 0 {
		return
	}
	r := co.routes[c.route]
	r.lost++
	if co.sink != nil {
		// The span ends flagged lost (B = 2): no completion will close it.
		co.emit(now, obs.KindSpanEnd, obs.NameAttempt, r.id, j.ID, 2)
	}
	co.attemptDied(slot, k, now)
}

// Finish completes a call at `at` — success or failure: feeds the
// breaker, counts the outcome, frees the slot and hands the owner back
// to the engine.
func (co *Lifecycle) Finish(slot int32, at cycles.Cycles, ok bool) {
	c := &co.calls[slot]
	r := co.routes[c.route]
	if r.br != nil && !c.brSkip {
		r.br.Report(at, ok)
	}
	r.End(at-c.born, ok)
	o := c.Owner
	c.state = stateFree
	c.gen = (c.gen + 1) & idGenMask
	co.free = append(co.free, slot)
	co.seam.Done(r, o, at, ok)
}

// alloc claims a call slot; generations distinguish reuses.
func (co *Lifecycle) alloc() int32 {
	if n := len(co.free); n > 0 {
		slot := co.free[n-1]
		co.free = co.free[:n-1]
		return slot
	}
	co.calls = append(co.calls, call{})
	return int32(len(co.calls) - 1)
}

// NewServiceStats reports one replica set over the window [0, horizon]:
// n queues read through q, the completions its replicas served, and
// its wasted work (w may be nil).
func NewServiceStats(name string, completions uint64, w *Waste, horizon cycles.Cycles, n int, q func(int) *sim.Queue) ServiceStats {
	st := ServiceStats{Service: name, Replicas: n, Completions: completions}
	if w != nil {
		st.Wasted = w.n
		st.WastedMS = w.cycles.Micros() / 1e3
		if w.n > 0 {
			st.WastedP50US = w.lat.Quantile(0.50).Micros()
			st.WastedP95US = w.lat.Quantile(0.95).Micros()
			st.WastedP99US = w.lat.Quantile(0.99).Micros()
		}
	}
	var util, depth float64
	for i := 0; i < n; i++ {
		qi := q(i)
		util += qi.Utilization(horizon)
		depth += qi.MeanDepth(horizon)
		st.MaxDepth = max(st.MaxDepth, qi.MaxDepth())
	}
	if n > 0 {
		st.Utilization = util / float64(n)
		depth /= float64(n)
	}
	st.MeanDepth = depth
	return st
}
