package workload

import (
	"fmt"

	"xcontainers/internal/apps"
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// TrafficLoad is one discrete-event server experiment: an arrival
// process drives requests at per-request cost RequestCostN through a
// FIFO queue per container, each with one server per usable worker.
//
// Its Load selects the mode (see Load): an open-loop arrival process,
// or a closed-loop population — the paper's saturating ab/wrk/memtier
// drivers. Saturated, the closed loop reproduces the analytic
// ServerLoad model (see ServerLoad.Analytic) as one special case.
type TrafficLoad struct {
	Driver Driver
	App    *apps.App
	RT     *runtimes.Runtime

	Workers int // worker processes per container (0 = app default)
	Cores   int // physical cores per container (0 = 1)

	// Load is the offered load. A zero DurationSec in a closed loop is
	// auto: long enough for ~30k completions.
	Load
	// Replicas spreads the load round-robin over that many identical
	// containers, each with its own queue, workers, and cores
	// (0 = 1) — the multi-container Serve experiments.
	Replicas int

	// Observe, when non-nil, arms the observability layer: a trace ring
	// plus a windowed time series in the result. Nil keeps the run on
	// the zero-cost path.
	Observe *obs.Options
}

// TrafficResult is one traffic experiment's outcome. All rates are in
// requests per second — the same unit as OfferedRate — so feeding a
// measured Throughput back in as a Rate is always meaningful; client
// operations (App.OpsPerRequest) are a reporting concern of the
// closed-loop drivers (see ServerLoad.Run).
type TrafficResult struct {
	Throughput  float64 // completed requests per virtual second
	OfferedRate float64 // configured open-loop rate (0 closed loop)
	Arrived     uint64  // requests admitted within the horizon
	Completed   uint64  // requests finished within the horizon

	LatencyUS float64 // mean sojourn (queueing + service), µs
	P50US     float64
	P95US     float64
	P99US     float64
	MaxUS     float64

	MeanQueueDepth float64 // time-weighted jobs in system, all queues
	MaxQueueDepth  int     // peak jobs in system on any one queue
	Utilization    float64 // busy fraction of total server capacity

	PerRequest  cycles.Cycles // CPU demand per request
	Population  int           // resolved closed-loop population
	DurationSec float64       // resolved horizon

	// TimeSeries and Trace are set only when Observe was armed.
	TimeSeries *obs.TimeSeries
	Trace      *obs.Recorder
}

// targetCompletions sizes auto-duration closed-loop runs: large enough
// that whole-request granularity is ≪ the 2% equivalence budget.
const targetCompletions = 30_000

// Run executes the experiment on a fresh engine and returns its
// statistics. Runs are deterministic: same configuration and seed,
// same result.
func (l TrafficLoad) Run() TrafficResult {
	workers := l.Workers
	if workers <= 0 {
		workers = l.App.Processes
	}
	if workers <= 0 {
		workers = 1
	}
	cores := max(l.Cores, 1)
	parallel := min(workers*max(1, l.App.ThreadsPer), cores)
	per := RequestCostN(l.RT, l.App, workers)
	replicas := max(l.Replicas, 1)

	open := l.Open()
	conc := l.Population(parallel * replicas)

	horizon := cycles.FromSeconds(l.Duration())
	if l.DurationSec <= 0 && !open {
		// Auto: ~targetCompletions whole requests across all servers.
		horizon = cycles.Cycles(targetCompletions/(parallel*replicas)+1) * per
	}

	eng := sim.NewEngine()
	var ob *Observer
	if l.Observe != nil {
		ob = NewObserver(*l.Observe, horizon, "load")
	}
	queues := make([]*sim.Queue, replicas)
	var latency obs.Histogram
	for i := range queues {
		q := sim.NewQueue(eng, fmt.Sprintf("container-%d", i), parallel)
		if ob == nil {
			q.OnDone = func(j sim.Job) { latency.Observe(eng.Now() - j.Born) }
		} else {
			ob.TraceQueue(q, uint32(i))
			q.OnDone = func(j sim.Job) {
				lat := eng.Now() - j.Born
				latency.Observe(lat)
				ob.Served(eng.Now(), lat, j.Cost)
			}
		}
		queues[i] = q
	}
	arrive := func(q *sim.Queue, j sim.Job) {
		if ob != nil {
			ob.Arrive(eng.Now(), j.ID)
		}
		q.Arrive(j)
	}

	if open {
		eng.DriveArrivals(l.Arrivals(), sim.NewRand(l.Seed), horizon, func(id uint64) {
			arrive(queues[int(id-1)%replicas], sim.Job{ID: id, Cost: per, Born: eng.Now()})
		})
	} else {
		// Closed loop: a fixed population re-issues on completion; each
		// connection stays pinned to its container, like a keep-alive
		// load generator.
		for _, q := range queues {
			q := q
			done := q.OnDone
			q.OnDone = func(j sim.Job) {
				done(j)
				if eng.Now() < horizon {
					arrive(q, sim.Job{ID: j.ID, Cost: per, Born: eng.Now()})
				}
			}
		}
		// Seed the population directly at time zero: admissions before
		// the first Step are indistinguishable from zero-time events,
		// and skip one closure per connection.
		for i := 0; i < conc; i++ {
			arrive(queues[i%replicas], sim.Job{ID: uint64(i + 1), Cost: per, Born: 0})
		}
	}

	eng.Run(horizon)

	res := TrafficResult{
		OfferedRate: l.OfferedRate(),
		PerRequest:  per,
		Population:  conc,
		DurationSec: horizon.Seconds(),
	}
	var busy cycles.Cycles
	for _, q := range queues {
		res.Arrived += q.Arrived
		res.Completed += q.Completed
		res.MeanQueueDepth += q.MeanDepth(horizon)
		res.MaxQueueDepth = max(res.MaxQueueDepth, q.MaxDepth())
		busy += q.BusyCycles
	}
	res.Utilization = min(float64(busy)/(float64(parallel*replicas)*float64(horizon)), 1)

	res.Throughput = float64(res.Completed) / horizon.Seconds()
	res.LatencyUS = latency.MeanMicros()
	res.P50US = latency.Quantile(0.50).Micros()
	res.P95US = latency.Quantile(0.95).Micros()
	res.P99US = latency.Quantile(0.99).Micros()
	res.MaxUS = latency.Max().Micros()
	if ob != nil {
		res.TimeSeries, res.Trace = ob.Finish(eng.Fired())
	}
	return res
}
