package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// RouteStats is one edge's report section: call accounting, robustness
// counters, and successful-call latency percentiles in virtual
// microseconds. Field order is the JSON order in reports; counters
// that read zero for plain routes are omitted there.
type RouteStats struct {
	Route     string `json:"route"`
	Calls     uint64 `json:"calls"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed,omitempty"`

	Retries      uint64 `json:"retries,omitempty"`
	Timeouts     uint64 `json:"timeouts,omitempty"`
	Lost         uint64 `json:"lost,omitempty"`
	Hedges       uint64 `json:"hedges,omitempty"`
	HedgeWins    uint64 `json:"hedge_wins,omitempty"`
	BudgetDenied uint64 `json:"budget_denied,omitempty"`
	NoBackend    uint64 `json:"no_backend,omitempty"`
	Handshakes   uint64 `json:"handshakes,omitempty"`

	Errors           uint64 `json:"errors,omitempty"`
	Shed             uint64 `json:"shed,omitempty"`
	BreakerOpens     uint64 `json:"breaker_opens,omitempty"`
	BreakerFastFails uint64 `json:"breaker_fast_fails,omitempty"`

	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// statsOf snapshots one edge.
func statsOf(e *Edge) RouteStats { return e.Stats(e.Name()) }

// RouteStats snapshots every edge in creation order (the entry edge
// where SetEntry placed it).
func (g *Graph) RouteStats() []RouteStats {
	out := make([]RouteStats, len(g.edges))
	for i, e := range g.edges {
		out[i] = statsOf(e)
	}
	return out
}

// ServiceStats is one service's report section: replica-set capacity
// consumed over the run window, including the work that bought nothing
// — completions for calls that had already timed out, been retried, or
// lost their hedge race. Wasted work is the retry storm's signature:
// offered load stays flat while goodput collapses.
type ServiceStats struct {
	Service     string  `json:"service"`
	Replicas    int     `json:"replicas"`
	Completions uint64  `json:"completions"`
	Wasted      uint64  `json:"wasted,omitempty"`
	WastedMS    float64 `json:"wasted_ms,omitempty"`

	// Wasted-completion latency percentiles, from a histogram kept
	// separate from the route histograms — hedge losers and post-timeout
	// finishes no longer skew a route's p99.
	WastedP50US float64 `json:"wasted_p50_us,omitempty"`
	WastedP95US float64 `json:"wasted_p95_us,omitempty"`
	WastedP99US float64 `json:"wasted_p99_us,omitempty"`
	Utilization float64 `json:"utilization"` // averaged across replicas
	MeanDepth   float64 `json:"mean_depth"`  // time-averaged, per replica
	MaxDepth    int     `json:"max_depth"`   // worst single replica
}

// ServiceStats snapshots every service over the window [0, horizon],
// in creation order.
func (g *Graph) ServiceStats(horizon cycles.Cycles) []ServiceStats {
	out := make([]ServiceStats, len(g.services))
	for i, s := range g.services {
		out[i] = NewServiceStats(s.name, s.completions, &s.waste, horizon, len(s.backends),
			func(i int) *sim.Queue { return s.backends[i].q })
	}
	return out
}
