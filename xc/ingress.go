package xc

import (
	"fmt"
	"math"
	"strings"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
)

// LBPolicy selects how an ingress route spreads requests over replicas.
type LBPolicy = ingress.Policy

const (
	// RoundRobin rotates over up replicas in order.
	RoundRobin = ingress.RoundRobin
	// WeightedRR is smooth weighted round-robin (the NGINX algorithm).
	WeightedRR = ingress.Weighted
	// LeastQueue joins the shortest queue — the global-information ideal.
	LeastQueue = ingress.JSQ
	// PowerOfTwo probes two seeded-random replicas, joins the shorter.
	PowerOfTwo = ingress.PowerOfTwo
)

// ParseLB resolves a load-balancing policy name, case-insensitively.
func ParseLB(s string) (LBPolicy, error) {
	return ingress.ParsePolicy(strings.ToLower(strings.TrimSpace(s)))
}

// LBUsage renders the known policy names for flag help strings.
func LBUsage() string { return ingress.PolicyUsage() }

// RouteReport is one route's section in a ClusterReport or GraphReport:
// call counts, robustness-machinery counters (retries, timeouts,
// hedges, budget denials), and the end-to-end latency quantiles of
// calls on that route.
type RouteReport = ingress.RouteStats

// ServiceReport is one service's section: replica count, completions,
// wasted work (attempts whose caller had already timed out, hedged
// past them, or lost them), and queue statistics.
type ServiceReport = ingress.ServiceStats

// IngressSpec configures one route of the L7 ingress tier: load
// balancing, connection handling, and the robustness ladder (timeout,
// retries with budget, hedging). Build one with Ingress and chain the
// knobs:
//
//	in := xc.Ingress().Policy(xc.PowerOfTwo).KeepAlive(100).
//		TimeoutMicros(500).Retries(2).RetryBudget(0.1).Hedge(0.99)
//
// The zero spec is round-robin over keep-alive connections with no
// timeout, no retries, and no hedging. Attach it to a ClusterSpec to
// front a fleet, or use it as the per-route policy of a ServiceGraph.
type IngressSpec struct {
	lb          LBPolicy
	perRequest  bool // true = a fresh connection per request
	kaReqs      int  // requests amortized per keep-alive connection
	timeoutUS   float64
	retries     int
	backoffUS   float64
	retryBudget float64
	hedgeP      float64
	cacheHit    float64
	breakerRate float64
	shedDepth   int
	cores       int
}

// Ingress starts an ingress route spec.
func Ingress() *IngressSpec { return &IngressSpec{} }

// Policy selects the route's load-balancing algorithm.
func (i *IngressSpec) Policy(p LBPolicy) *IngressSpec {
	i.lb = p
	return i
}

// KeepAlive amortizes connection setup over reqs requests per
// connection (0 = the default 100). Keep-alive is the default mode.
func (i *IngressSpec) KeepAlive(reqs int) *IngressSpec {
	i.perRequest = false
	i.kaReqs = reqs
	return i
}

// PerRequestConns charges a full connection setup on every attempt —
// the no-keep-alive baseline.
func (i *IngressSpec) PerRequestConns() *IngressSpec {
	i.perRequest = true
	return i
}

// TimeoutMicros arms a per-attempt timeout in virtual microseconds
// (0 = no timeout, and therefore no retries).
func (i *IngressSpec) TimeoutMicros(us float64) *IngressSpec {
	i.timeoutUS = us
	return i
}

// Retries caps re-attempts after timeouts or lost attempts (max 8).
func (i *IngressSpec) Retries(n int) *IngressSpec {
	i.retries = n
	return i
}

// BackoffMicros sets the base retry backoff; retry k waits
// 2^(k-1)·base, capped at 8·base (default 0: retry at once).
func (i *IngressSpec) BackoffMicros(us float64) *IngressSpec {
	i.backoffUS = us
	return i
}

// RetryBudget throttles retries to perCall tokens accrued per admitted
// call (0 = unlimited — the retry-storm configuration).
func (i *IngressSpec) RetryBudget(perCall float64) *IngressSpec {
	i.retryBudget = perCall
	return i
}

// Hedge arms tail-latency hedging: when an attempt outlives the
// route's p-quantile latency, a second attempt races it on another
// replica (p in (0,1); 0 = off).
func (i *IngressSpec) Hedge(p float64) *IngressSpec {
	i.hedgeP = p
	return i
}

// Breaker arms the route's circuit breaker: a tumbling window of call
// outcomes whose failure rate reaches rate trips the route open —
// calls fail fast without spending replica cycles — until a cooldown
// and seeded half-open probes re-close it (rate in (0,1]; 0 = off).
func (i *IngressSpec) Breaker(rate float64) *IngressSpec {
	i.breakerRate = rate
	return i
}

// Shed arms utilization-triggered load shedding: a call arriving while
// the route's mean backlog per up replica exceeds depth is failed fast
// instead of deepening the queues (0 = off).
func (i *IngressSpec) Shed(depth int) *IngressSpec {
	i.shedDepth = depth
	return i
}

// CacheHit marks the route as a tiered-cache lookup: with probability
// p a successful call short-circuits the caller's remaining routes
// (declare the fallback tier as the next Route of the same service),
// and a failed lookup degrades to a miss instead of failing the
// request. Only meaningful on ServiceGraph routes.
func (i *IngressSpec) CacheHit(p float64) *IngressSpec {
	i.cacheHit = p
	return i
}

// Cores sets the ingress proxy's CPU allocation in cluster mode
// (default 2). Ignored on ServiceGraph routes.
func (i *IngressSpec) Cores(n int) *IngressSpec {
	i.cores = n
	return i
}

// maxRouteMicros bounds the timeout and backoff knobs: a per-attempt
// delay beyond an hour of virtual time is a unit mistake, not a policy.
const maxRouteMicros = 3600e6

// validate rejects numbers a route cannot mean: a non-finite, negative
// or over-an-hour duration, a non-finite or negative retry budget, and
// a probability outside its documented range. A nil spec is the
// default route.
func (i *IngressSpec) validate() error {
	if i == nil {
		return nil
	}
	for _, d := range []struct {
		name string
		us   float64
	}{{"timeout", i.timeoutUS}, {"backoff", i.backoffUS}} {
		if math.IsNaN(d.us) || d.us < 0 || d.us > maxRouteMicros {
			return fmt.Errorf("xc: ingress %s %v µs must be finite, not negative and at most %v µs", d.name, d.us, float64(maxRouteMicros))
		}
	}
	if math.IsNaN(i.retryBudget) || math.IsInf(i.retryBudget, 0) || i.retryBudget < 0 {
		return fmt.Errorf("xc: ingress retry budget %v must be finite and not negative", i.retryBudget)
	}
	// The range tests are written so NaN fails them.
	if !(i.hedgeP >= 0 && i.hedgeP < 1) {
		return fmt.Errorf("xc: ingress hedge quantile %v must be in (0, 1), or 0 for off", i.hedgeP)
	}
	if !(i.breakerRate >= 0 && i.breakerRate <= 1) {
		return fmt.Errorf("xc: ingress breaker failure rate %v must be in (0, 1], or 0 for off", i.breakerRate)
	}
	if !(i.cacheHit >= 0 && i.cacheHit <= 1) {
		return fmt.Errorf("xc: ingress cache hit probability %v must be in [0, 1]", i.cacheHit)
	}
	return nil
}

// route lowers the spec into the internal per-edge policy.
func (i *IngressSpec) route() ingress.RoutePolicy {
	if i == nil {
		return ingress.RoutePolicy{KeepAlive: true}
	}
	return ingress.RoutePolicy{
		LB:            i.lb,
		KeepAlive:     !i.perRequest,
		KeepAliveReqs: i.kaReqs,
		Timeout:       cycles.FromMicros(i.timeoutUS),
		Retries:       i.retries,
		Backoff:       cycles.FromMicros(i.backoffUS),
		RetryBudget:   i.retryBudget,
		HedgeP:        i.hedgeP,

		BreakerFailureRate: i.breakerRate,
		ShedDepth:          i.shedDepth,
	}
}
