// Package ingress is the L7 tier of the simulation: a reverse proxy
// and service-graph layer running natively on the allocation-free
// discrete-event kernel (internal/sim).
//
// The paper's headline numbers are single-host measurements — one
// NGINX, one memcached, a load generator wired straight into the
// server. Production deployments front those runtimes with an ingress
// proxy and compose them into service graphs, and it is the ingress
// tier's mechanics that decide how single-host overheads surface at
// the tail: connection handling (keep-alive versus per-request
// handshakes, charged from the runtime kind's cycles.CostTable),
// per-route load-balancing policies over replica sets (round-robin,
// weighted, join-shortest-queue, power-of-two-choices), and robustness
// mechanics — per-attempt timeouts, capped exponential-backoff retries
// governed by a retry budget, and tail-latency hedging. Nothing here
// asserts an outcome: retry storms, goodput collapse, and hedging wins
// all emerge from queueing, per runtime kind, and are therefore
// byte-deterministic per seed and golden-testable.
//
// The unit of composition is the Graph: services are replica-backed
// queues, edges are RPC routes with their own policy, and a request is
// a tree of calls — sequential chains, fan-out joins, and tiered-cache
// short-circuits — driven entirely by typed kernel events. The hot
// path allocates nothing in steady state: calls and frames live in
// slot arenas with free lists, timers are typed events, and every
// per-request decision works on preallocated state.
package ingress

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// Policy selects how an edge spreads calls over its target's replicas.
type Policy uint8

const (
	// RoundRobin rotates over up replicas in order.
	RoundRobin Policy = iota
	// Weighted is smooth weighted round-robin (the NGINX algorithm):
	// replicas are visited proportionally to their weights with maximal
	// spacing, deterministically.
	Weighted
	// JSQ joins the shortest queue — the global-information ideal.
	JSQ
	// PowerOfTwo samples two seeded-random replicas and joins the
	// shorter queue — the classic load-balancing compromise that gets
	// most of JSQ's benefit with two probes.
	PowerOfTwo
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case Weighted:
		return "weighted"
	case JSQ:
		return "jsq"
	case PowerOfTwo:
		return "p2c"
	}
	return fmt.Sprintf("lb-%d", uint8(p))
}

// ParsePolicy resolves a load-balancing policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr", "round-robin", "roundrobin":
		return RoundRobin, nil
	case "weighted", "wrr":
		return Weighted, nil
	case "jsq", "shortest-queue":
		return JSQ, nil
	case "p2c", "power-of-two", "po2":
		return PowerOfTwo, nil
	}
	return 0, fmt.Errorf("ingress: unknown load-balancing policy %q (known: rr|weighted|jsq|p2c)", s)
}

// PolicyUsage renders the known policy names for flag help strings.
func PolicyUsage() string { return "rr|weighted|jsq|p2c" }

const (
	// maxRetries bounds the retry ladder so a call's attempt bitmask
	// (primary + retries + one hedge) stays within its 16 bits.
	maxRetries = 8
	// retryBudgetCap bounds token accrual so long quiet periods cannot
	// bank an unbounded retry burst.
	retryBudgetCap = 64.0
	// hedgeMinSamples is how many completed attempts a route must have
	// observed before the hedge delay (a latency quantile) is
	// meaningful; hedging stays off below it.
	hedgeMinSamples = 64
)

// RoutePolicy is one edge's connection handling and robustness
// configuration. The zero value is a plain route: no handshake charge,
// no timeout, no retries, no hedging.
type RoutePolicy struct {
	// LB spreads this edge's calls over the target's replicas.
	LB Policy

	// ConnSetup is the connection-establishment cost charged to the
	// serving replica (derive it from the runtime kind with
	// ConnSetupCost). With KeepAlive it is amortized: one handshake
	// per KeepAliveReqs requests per replica; without, every request
	// pays it — the per-request-connection regime.
	ConnSetup cycles.Cycles
	// KeepAlive reuses connections; KeepAliveReqs is requests served
	// per connection before it is recycled (0 = 100).
	KeepAlive     bool
	KeepAliveReqs int

	// Timeout is the per-attempt deadline (0 = none). A timed-out
	// attempt is abandoned — the replica still spends the cycles, which
	// is exactly what makes retry storms amplify load — and retried if
	// Retries and the budget allow.
	Timeout cycles.Cycles
	// Retries is the maximum retry attempts per call (capped at 8).
	Retries int
	// Backoff is the base retry delay, doubling per retry up to
	// BackoffCap (0 = immediate retry; BackoffCap 0 = 8× Backoff).
	Backoff    cycles.Cycles
	BackoffCap cycles.Cycles
	// RetryBudget, when > 0, is the token ratio governing retries: each
	// admitted call accrues RetryBudget tokens (capped), each retry
	// spends one. 0.1 ≈ "retries may add at most 10% load". 0 means
	// unbudgeted — the configuration that lets retry storms collapse
	// goodput.
	RetryBudget float64

	// HedgeP, when > 0, arms tail-latency hedging: an attempt still
	// outstanding after the route's observed HedgeP attempt-latency
	// quantile gets a second, concurrent attempt on a different
	// replica; first completion wins, the loser is wasted work. Hedging
	// waits for hedgeMinSamples completions before engaging.
	HedgeP float64

	// BreakerFailureRate, when > 0, arms the per-route circuit
	// breaker: a tumbling window of BreakerWindow call outcomes whose
	// failure rate reaches this threshold opens the breaker, calls fail
	// fast for BreakerCooldown, then half-open admits seeded probes
	// with probability BreakerProbeP until BreakerProbeQuota
	// consecutive successes re-close it (one probe failure re-opens).
	BreakerFailureRate float64
	BreakerWindow      int           // outcomes per window (0 = 20)
	BreakerCooldown    cycles.Cycles // open hold (0 = 10× Timeout, else 1 ms)
	BreakerProbeP      float64       // half-open admission (0 = 0.25)
	BreakerProbeQuota  int           // successes to close (0 = 3)

	// ShedDepth, when > 0, arms utilization-triggered load shedding on
	// this route: a new call arriving while the target's mean backlog
	// per up replica exceeds ShedDepth is failed fast instead of
	// queued — the overload valve that keeps latency bounded when the
	// fleet is saturated.
	ShedDepth int
}

// normalized applies defaults and caps.
func (p RoutePolicy) normalized() RoutePolicy {
	if p.KeepAlive && p.KeepAliveReqs <= 0 {
		p.KeepAliveReqs = 100
	}
	if p.Retries > maxRetries {
		p.Retries = maxRetries
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.BackoffCap == 0 {
		p.BackoffCap = 8 * p.Backoff
	}
	if p.BreakerFailureRate > 0 {
		if p.BreakerWindow <= 0 {
			p.BreakerWindow = 20
		}
		if p.BreakerCooldown == 0 {
			if p.Timeout > 0 {
				p.BreakerCooldown = 10 * p.Timeout
			} else {
				p.BreakerCooldown = cycles.FromMicros(1000)
			}
		}
		if p.BreakerProbeP <= 0 {
			p.BreakerProbeP = 0.25
		}
		if p.BreakerProbeQuota <= 0 {
			p.BreakerProbeQuota = 3
		}
	}
	return p
}

// CallMode is how a service invokes its outgoing edges.
type CallMode uint8

const (
	// Sequential calls edges in order; an edge with a hit ratio may
	// short-circuit the rest (tiered cache).
	Sequential CallMode = iota
	// FanOut calls every edge concurrently and joins on all of them;
	// an edge's hit ratio is its skip probability (local-cache hit).
	FanOut
)

// backend is one replica of a service: a queue plus routing state.
type backend struct {
	q      *sim.Queue
	cost   cycles.Cycles // per-request service demand at this replica
	weight int
	down   bool

	kaLeft int32 // keep-alive: requests left on the open connections
	cw     int   // smooth weighted round-robin current weight

	// unreachable models a network partition between this tier and the
	// replica: attempts routed here are lost in the network (no replica
	// cycles spent, only the timeout reaps them) while the replica
	// itself keeps draining what it already holds.
	unreachable bool

	// errRate, when > 0, is the gray-failure lever: a completed
	// attempt returns an error with this probability, drawn from a
	// dedicated per-replica stream so fault coins never perturb the
	// routing stream.
	errRate float64
	errRng  *sim.Rand
}

// Service is one node of the graph: a named replica set plus the edges
// it calls downstream.
type Service struct {
	g    *Graph
	idx  int32
	name string
	mode CallMode

	backends []*backend
	edges    []*Edge

	// attemptLat observes winning attempts' service-phase latency
	// (attempt start → replica completion, queueing included) — the
	// basis for hedge delays on every route into this service.
	attemptLat obs.Histogram

	completions uint64 // attempts completed at replicas, wasted included
	waste       Waste  // completions nobody was waiting for any more
}

// Name returns the service's display name.
func (s *Service) Name() string { return s.name }

// AddBackend registers one replica and returns its index. after, when
// non-nil, runs on every completion at this replica after the graph's
// own bookkeeping — the hook owners use for drain checks. The graph
// takes over q.OnDone; set OnStart on the queue directly if needed.
func (s *Service) AddBackend(q *sim.Queue, cost cycles.Cycles, weight int, after func(sim.Job)) int {
	if weight < 1 {
		weight = 1
	}
	b := &backend{q: q, cost: cost, weight: weight}
	idx := len(s.backends)
	s.backends = append(s.backends, b)
	q.OnDone = func(j sim.Job) {
		s.g.attemptDone(s, idx, j)
		if after != nil {
			after(j)
		}
	}
	return idx
}

// SetDown marks a replica (un)routable. Down replicas finish what they
// hold; new calls route around them.
func (s *Service) SetDown(i int, down bool) { s.backends[i].down = down }

// SetCost changes a replica's per-request demand — the brown-out lever
// (a slow replica keeps accepting traffic at a multiple of the cost).
func (s *Service) SetCost(i int, cost cycles.Cycles) { s.backends[i].cost = cost }

// SetUnreachable (un)partitions a replica from this tier: attempts
// routed to an unreachable replica vanish into the network and only
// their timeouts reap them, so routes without a timeout cannot recover
// from a partition — exactly the production failure mode.
func (s *Service) SetUnreachable(i int, v bool) { s.backends[i].unreachable = v }

// SetErrorRate arms (rate > 0) or clears (rate = 0) a replica's
// gray-failure error rate. seed derives the replica's private coin
// stream on first arming; re-arming keeps the stream so windows
// continue rather than replay.
func (s *Service) SetErrorRate(i int, rate float64, seed uint64) {
	b := s.backends[i]
	b.errRate = rate
	if rate > 0 && b.errRng == nil {
		b.errRng = sim.NewRand(seed)
	}
}

// Edge is one route of the graph: calls from one service (or the
// client) into another, on a lifecycle Route. Edges are created in
// Connect order and reported in that order.
type Edge struct {
	*Route
	g        *Graph
	from, to *Service // from == nil for the entry edge
	// hit is the edge's cache behaviour. Sequential mode: probability
	// that, after this edge completes, the remaining edges are skipped
	// (a tiered-cache hit). FanOut mode: probability the edge is not
	// called at all. An edge with hit > 0 is a soft dependency — its
	// failure degrades to a miss instead of failing the caller.
	hit float64

	rr int // round-robin cursor
}

// Name renders the route like "ingress->app"; the entry edge's source
// is the client.
func (e *Edge) Name() string {
	from := "client"
	if e.from != nil {
		from = e.from.name
	}
	return from + "->" + e.to.name
}

// pick selects a replica index under the edge's policy, or -1 when no
// replica is up. Deterministic: ties break on the lower index, and the
// only randomness (PowerOfTwo) draws from the graph's seeded stream.
func (e *Edge) pick() int {
	bs := e.to.backends
	n := len(bs)
	switch e.pol.LB {
	case RoundRobin:
		for i := 0; i < n; i++ {
			idx := (e.rr + i) % n
			if !bs[idx].down {
				e.rr = idx + 1
				return idx
			}
		}
	case Weighted:
		total := 0
		best := -1
		for i, b := range bs {
			if b.down {
				continue
			}
			b.cw += b.weight
			total += b.weight
			if best < 0 || b.cw > bs[best].cw {
				best = i
			}
		}
		if best >= 0 {
			bs[best].cw -= total
		}
		return best
	case JSQ:
		// Scan from the rotating cursor so depth ties spread round-robin
		// instead of pinning to the lowest index — a deterministic stand-in
		// for the random tie-break real balancers use. Without it, an
		// evenly-loaded fleet funnels every tie into replica 0, which is
		// catastrophic when replica 0 is the degraded one.
		best := -1
		for i := 0; i < n; i++ {
			idx := (e.rr + i) % n
			if bs[idx].down {
				continue
			}
			if best < 0 || bs[idx].q.Depth() < bs[best].q.Depth() {
				best = idx
			}
		}
		if best >= 0 {
			e.rr = best + 1
		}
		return best
	case PowerOfTwo:
		up := 0
		for _, b := range bs {
			if !b.down {
				up++
			}
		}
		if up == 0 {
			return -1
		}
		a := e.nthUp(int(e.g.rng.Uint64() % uint64(up)))
		if up == 1 {
			return a
		}
		b := e.nthUp(int(e.g.rng.Uint64() % uint64(up)))
		if b == a {
			b = e.nextUp(a)
		}
		// Ties keep the first sample — breaking toward an index would
		// starve high indices whenever the fleet is idle.
		if bs[b].q.Depth() < bs[a].q.Depth() {
			return b
		}
		return a
	}
	return -1
}

// nthUp returns the index of the k-th up replica (k < up count).
func (e *Edge) nthUp(k int) int {
	for i, b := range e.to.backends {
		if b.down {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// nextUp returns the next up replica after i, cyclically.
func (e *Edge) nextUp(i int) int {
	bs := e.to.backends
	for d := 1; d < len(bs); d++ {
		j := (i + d) % len(bs)
		if !bs[j].down {
			return j
		}
	}
	return i
}

// pickOther prefers a replica different from avoid — the hedge target.
func (e *Edge) pickOther(avoid int) int {
	idx := e.pick()
	if idx == avoid {
		if alt := e.nextUp(idx); alt != idx {
			return alt
		}
	}
	return idx
}

// backlog is the total queue depth over the target's up replicas, and
// how many are up.
func (e *Edge) backlog() (depth, up int) {
	for _, b := range e.to.backends {
		if b.down {
			continue
		}
		depth += b.q.Depth()
		up++
	}
	return depth, up
}
