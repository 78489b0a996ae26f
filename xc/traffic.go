package xc

import (
	"fmt"

	"xcontainers/internal/apps"
	"xcontainers/internal/cycles"
	"xcontainers/internal/workload"
)

// TrafficSpec describes a flow-level traffic experiment: how requests
// arrive (open-loop rate, bursts, or a closed-loop connection pool) and
// for how long. Build one with Traffic and chain the knobs:
//
//	t := xc.Traffic().Rate(50_000).Duration(2).Seed(7)
//	rep, err := platform.Serve(xc.App("memcached"), t)
//
// Serve runs the spec on the discrete-event engine and reports
// throughput, latency percentiles, and queue-depth statistics. Runs
// are deterministic for a fixed seed.
type TrafficSpec struct {
	load       workload.Load
	workers    int
	cores      int
	containers int
	observe    *ObserveSpec
}

// Traffic starts a spec. With no knobs set, Serve runs a saturating
// closed loop (the paper's ab/wrk/memtier drivers).
func Traffic() *TrafficSpec { return &TrafficSpec{} }

// Rate switches to open-loop arrivals at perSec requests per second
// (Poisson gaps; see Paced for a perfectly spaced generator).
func (t *TrafficSpec) Rate(perSec float64) *TrafficSpec {
	t.load.Rate = perSec
	return t
}

// Paced makes open-loop gaps uniform instead of Poisson.
func (t *TrafficSpec) Paced() *TrafficSpec {
	t.load.Paced = true
	return t
}

// Burst replaces the smooth arrival process with an on/off one: bursts
// at peakPerSec lasting onSeconds on average, separated by silences of
// offSeconds on average. Mean offered rate is peak·on/(on+off).
func (t *TrafficSpec) Burst(peakPerSec, onSeconds, offSeconds float64) *TrafficSpec {
	t.load.Burst = &workload.BurstSpec{PeakRate: peakPerSec, OnSeconds: onSeconds, OffSeconds: offSeconds}
	return t
}

// Duration sets the simulated horizon in virtual seconds (0 = auto).
func (t *TrafficSpec) Duration(seconds float64) *TrafficSpec {
	t.load.DurationSec = seconds
	return t
}

// Seed selects the arrival randomness stream; a fixed seed makes the
// whole run reproducible.
func (t *TrafficSpec) Seed(n uint64) *TrafficSpec {
	t.load.Seed = n
	return t
}

// Connections sets the closed-loop population (ignored in open loop).
func (t *TrafficSpec) Connections(n int) *TrafficSpec {
	t.load.Concurrency = n
	return t
}

// Workers sets worker processes per container (0 = the app's default).
func (t *TrafficSpec) Workers(n int) *TrafficSpec {
	t.workers = n
	return t
}

// Cores sets physical cores per container (0 = 1).
func (t *TrafficSpec) Cores(n int) *TrafficSpec {
	t.cores = n
	return t
}

// Containers spreads the load round-robin over n identical containers,
// each with its own queue, workers, and cores (0 = 1).
func (t *TrafficSpec) Containers(n int) *TrafficSpec {
	t.containers = n
	return t
}

// Observe arms the observability layer for the run: the report gains a
// TimeSeries and a WriteTrace-able flight-recorder trace. Nil detaches.
func (t *TrafficSpec) Observe(o *ObserveSpec) *TrafficSpec {
	t.observe = o
	return t
}

// validate rejects specs the engine cannot give a meaningful answer
// for, mirroring netsim.Pipeline.Simulate's input contract.
func (t *TrafficSpec) validate() error {
	if err := t.load.Validate(); err != nil {
		return fmt.Errorf("xc: %w", err)
	}
	if t.workers < 0 || t.cores < 0 || t.containers < 0 {
		return fmt.Errorf("xc: traffic workers/cores/containers must not be negative")
	}
	return nil
}

// serveInputs is the prologue Platform.Serve and Cluster.Serve share:
// the workload must be an App workload (request profiles drive the
// flow-level model — Program and SyscallLoop texts have no request
// structure to serve), and the traffic spec is defaulted and validated.
func serveInputs(w *Workload, t *TrafficSpec) (*apps.App, *TrafficSpec, error) {
	if w == nil {
		return nil, nil, fmt.Errorf("xc: serve requires a workload")
	}
	app := w.Model()
	if app == nil {
		if w.err != nil {
			return nil, nil, w.err
		}
		return nil, nil, fmt.Errorf("xc: serve requires an application workload (xc.App), not %q", w.Name())
	}
	if t == nil {
		t = Traffic()
	}
	if err := t.validate(); err != nil {
		return nil, nil, err
	}
	return app, t, nil
}

// Serve runs a traffic experiment of the workload's application model
// under this platform's architecture and returns a Report extended
// with latency percentiles and queue statistics.
func (p *Platform) Serve(w *Workload, t *TrafficSpec) (*Report, error) {
	app, t, err := serveInputs(w, t)
	if err != nil {
		return nil, err
	}
	res := workload.TrafficLoad{
		App: app, RT: p.Runtime(),
		Workers: t.workers, Cores: t.cores, Load: t.load,
		Replicas: t.containers, Observe: t.observe.options(),
	}.Run()

	horizon := cycles.FromSeconds(res.DurationSec)
	rep := &Report{
		App:     w.name,
		Runtime: p.Runtime().Name(),
		Kind:    KindName(p.cfg.Kind),
		Cloud:   CloudName(p.cfg.Cloud),
		Patched: p.cfg.MeltdownPatched,

		RunCycles:      uint64(horizon),
		TotalCycles:    uint64(horizon),
		VirtualSeconds: res.DurationSec,

		Latency: &LatencyStats{
			MeanUS: res.LatencyUS,
			P50US:  res.P50US,
			P95US:  res.P95US,
			P99US:  res.P99US,
			MaxUS:  res.MaxUS,
		},
		Queue: &QueueStats{
			MeanDepth:   res.MeanQueueDepth,
			MaxDepth:    res.MaxQueueDepth,
			Utilization: res.Utilization,
		},
	}
	rep.Throughput.RequestsPerSec = res.Throughput
	rep.Throughput.OfferedPerSec = res.OfferedRate
	rep.Traffic = &TrafficStats{
		Arrived:     res.Arrived,
		Completed:   res.Completed,
		Connections: res.Population,
		Containers:  max(1, t.containers),
		Seed:        t.load.Seed,
	}
	rep.TimeSeries = res.TimeSeries
	rep.trace = res.Trace
	return rep, nil
}
