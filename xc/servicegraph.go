package xc

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
	"xcontainers/internal/workload"
)

// GraphService is one tier of a ServiceGraph under construction:
// a named replica set serving one application model.
type GraphService struct {
	g        *ServiceGraphSpec
	name     string
	w        *Workload
	replicas int
	cores    int
	weights  []int
	fanOut   bool
	faults   []fault
}

// fault is one scheduled replica disturbance: a brown-out (cost
// multiplier) or an outage, over [fromSec, toSec).
type fault struct {
	replica  int
	factor   float64 // 0 = outage, else cost multiplier
	from, to float64
}

// Cores sets physical cores per replica (default 1).
func (s *GraphService) Cores(n int) *GraphService {
	s.cores = n
	return s
}

// Weights sets per-replica weights for WeightedRR routes (default: all
// ones). Must match the replica count.
func (s *GraphService) Weights(ws ...int) *GraphService {
	s.weights = ws
	return s
}

// FanOut makes the service call all its downstream routes in parallel,
// joining on the slowest (default: sequential, in Route order).
func (s *GraphService) FanOut() *GraphService {
	s.fanOut = true
	return s
}

// BrownOut multiplies one replica's per-request cost by factor during
// [fromSec, toSec) of the run — a degraded-but-alive backend.
func (s *GraphService) BrownOut(replica int, factor float64, fromSec, toSec float64) *GraphService {
	s.faults = append(s.faults, fault{replica: replica, factor: factor, from: fromSec, to: toSec})
	return s
}

// Down takes one replica offline during [fromSec, toSec): no new
// attempts route to it (in-service requests drain).
func (s *GraphService) Down(replica int, fromSec, toSec float64) *GraphService {
	s.faults = append(s.faults, fault{replica: replica, from: fromSec, to: toSec})
	return s
}

// graphEdge is one declared route.
type graphEdge struct {
	from, to string
	pol      *IngressSpec
}

// ServiceGraphSpec declares a multi-service topology: tiers of
// replica-backed services joined by ingress routes, each with its own
// load-balancing and robustness policy. Build it fluently and serve it
// with Platform.ServeGraph:
//
//	g := xc.ServiceGraph()
//	g.Service("app", xc.App("nginx"), 4)
//	g.Service("cache", xc.App("memcached"), 2)
//	g.Service("db", xc.App("mysql"), 2)
//	g.Entry("app", xc.Ingress().Policy(xc.PowerOfTwo))
//	g.Route("app", "cache", xc.Ingress().CacheHit(0.9))
//	g.Route("app", "db", xc.Ingress())
//	rep, err := platform.ServeGraph(g, xc.Traffic().Rate(100_000).Duration(1))
//
// A CacheHit route is a soft dependency: a hit short-circuits the
// caller's remaining routes (here, 90% of app requests skip the db),
// and a failed lookup degrades to a miss instead of failing the
// request. Routes without CacheHit are hard dependencies.
type ServiceGraphSpec struct {
	services []*GraphService
	byName   map[string]*GraphService
	edges    []graphEdge
	entryTo  string
	entryPol *IngressSpec
	observe  *ObserveSpec
	err      error
}

// ServiceGraph starts an empty topology.
func ServiceGraph() *ServiceGraphSpec {
	return &ServiceGraphSpec{byName: map[string]*GraphService{}}
}

// Service declares a replica-backed tier serving the workload's
// application model. Knobs chain on the returned service.
func (g *ServiceGraphSpec) Service(name string, w *Workload, replicas int) *GraphService {
	s := &GraphService{g: g, name: name, w: w, replicas: replicas}
	if _, dup := g.byName[name]; dup && g.err == nil {
		g.err = fmt.Errorf("xc: duplicate service %q", name)
	}
	g.services = append(g.services, s)
	g.byName[name] = s
	return s
}

// Entry routes client requests into the named service under pol
// (nil = default round-robin over keep-alive connections).
func (g *ServiceGraphSpec) Entry(to string, pol *IngressSpec) *ServiceGraphSpec {
	g.entryTo, g.entryPol = to, pol
	return g
}

// Route adds a dependency edge: each request served by from issues a
// downstream call to to under pol. Order matters for sequential
// services; FanOut services issue all routes in parallel.
func (g *ServiceGraphSpec) Route(from, to string, pol *IngressSpec) *ServiceGraphSpec {
	g.edges = append(g.edges, graphEdge{from: from, to: to, pol: pol})
	return g
}

// Observe arms the observability layer for the run: causal
// request/attempt spans across every route in the trace, plus a
// TimeSeries in the report. Nil detaches.
func (g *ServiceGraphSpec) Observe(o *ObserveSpec) *ServiceGraphSpec {
	g.observe = o
	return g
}

// validate rejects topologies the engine cannot serve: unknown or
// empty services, a missing entry, invalid route policies, or
// dependency cycles.
func (g *ServiceGraphSpec) validate() error {
	if g.err != nil {
		return g.err
	}
	if len(g.services) == 0 {
		return fmt.Errorf("xc: service graph has no services")
	}
	for _, s := range g.services {
		if s.replicas <= 0 {
			return fmt.Errorf("xc: service %q needs at least one replica", s.name)
		}
		if s.w == nil {
			return fmt.Errorf("xc: service %q needs a workload", s.name)
		}
		if len(s.weights) > 0 && len(s.weights) != s.replicas {
			return fmt.Errorf("xc: service %q has %d weights for %d replicas", s.name, len(s.weights), s.replicas)
		}
		for _, f := range s.faults {
			if f.replica < 0 || f.replica >= s.replicas {
				return fmt.Errorf("xc: service %q fault targets replica %d of %d", s.name, f.replica, s.replicas)
			}
			// The range tests are written so NaN fails them.
			if !(f.from >= 0 && f.to > f.from) || math.IsInf(f.to, 1) {
				return fmt.Errorf("xc: service %q fault window [%v, %v) must be finite, start at 0 or later and not be empty", s.name, f.from, f.to)
			}
			if !(f.factor >= 0) || math.IsInf(f.factor, 1) {
				return fmt.Errorf("xc: service %q brown-out factor %v must be finite and not negative", s.name, f.factor)
			}
		}
	}
	if g.entryTo == "" {
		return fmt.Errorf("xc: service graph needs an Entry")
	}
	if _, ok := g.byName[g.entryTo]; !ok {
		return fmt.Errorf("xc: entry service %q not declared", g.entryTo)
	}
	if err := g.entryPol.validate(); err != nil {
		return fmt.Errorf("%w (entry route)", err)
	}
	out := map[string][]string{}
	for _, e := range g.edges {
		if _, ok := g.byName[e.from]; !ok {
			return fmt.Errorf("xc: route from undeclared service %q", e.from)
		}
		if _, ok := g.byName[e.to]; !ok {
			return fmt.Errorf("xc: route to undeclared service %q", e.to)
		}
		if err := e.pol.validate(); err != nil {
			return fmt.Errorf("%w (route %s -> %s)", err, e.from, e.to)
		}
		out[e.from] = append(out[e.from], e.to)
	}
	// The call tree must be finite: reject dependency cycles.
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var walk func(string) error
	walk = func(n string) error {
		state[n] = visiting
		for _, m := range out[n] {
			switch state[m] {
			case visiting:
				return fmt.Errorf("xc: service graph has a dependency cycle through %q", m)
			case 0:
				if err := walk(m); err != nil {
					return err
				}
			}
		}
		state[n] = done
		return nil
	}
	for _, s := range g.services {
		if state[s.name] == 0 {
			if err := walk(s.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// GraphReport is the structured outcome of one Platform.ServeGraph:
// end-to-end latency at the graph's root plus per-route and
// per-service sections. It marshals to stable JSON and is
// byte-deterministic for a fixed graph, traffic spec, and seed.
type GraphReport struct {
	Runtime string `json:"runtime"`
	Kind    string `json:"kind"`
	Cloud   string `json:"cloud"`
	Patched bool   `json:"meltdown_patched"`

	Entry          string  `json:"entry"`
	Seed           uint64  `json:"seed"`
	VirtualSeconds float64 `json:"virtual_seconds"`

	Throughput Throughput   `json:"throughput"`
	Latency    LatencyStats `json:"latency"` // successful root requests

	Admitted    uint64 `json:"admitted"`
	Served      uint64 `json:"served"`
	Failed      uint64 `json:"failed,omitempty"`
	Connections int    `json:"connections,omitempty"`

	Routes   []RouteReport   `json:"routes"`
	Services []ServiceReport `json:"services"`

	// TimeSeries appears only when the run was observed
	// (ServiceGraphSpec.Observe); without a spec the report marshals
	// byte-identically to earlier releases.
	TimeSeries *TimeSeries `json:"time_series,omitempty"`

	trace *obsRecorder
}

// ServeGraph runs one traffic experiment over the topology on this
// platform's architecture: every replica of every service pays the
// architecture's request costs, and routes behave per their specs.
// The TrafficSpec drives the graph's entry exactly as Serve drives a
// single container: Rate/Paced/Burst open loops or a closed-loop
// Connections population. Runs are byte-deterministic per seed.
func (p *Platform) ServeGraph(g *ServiceGraphSpec, t *TrafficSpec) (*GraphReport, error) {
	if g == nil {
		return nil, fmt.Errorf("xc: ServeGraph requires a service graph")
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if t == nil {
		t = Traffic()
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	rt := p.Runtime()
	procs := max(1, t.workers)

	eng := sim.NewEngine()
	gr := ingress.NewGraph(eng, t.load.Seed^0x16c4e5500)

	dur := t.load.Duration()
	horizon := cycles.FromSeconds(dur)

	var ob *workload.Observer
	if g.observe != nil {
		ob = workload.NewObserver(g.observe.opts, horizon, "graph")
	}

	// Build services and their replica queues; wire faults.
	svcs := make(map[string]*ingress.Service, len(g.services))
	totalServers := 0
	queueID := uint32(0)
	for _, spec := range g.services {
		app := spec.w.Model()
		if app == nil {
			if spec.w.err != nil {
				return nil, spec.w.err
			}
			return nil, fmt.Errorf("xc: service %q needs an application workload (xc.App), not %q", spec.name, spec.w.Name())
		}
		per := workload.RequestCostN(rt, app, procs)
		mode := ingress.Sequential
		if spec.fanOut {
			mode = ingress.FanOut
		}
		svc := gr.AddService(spec.name, mode)
		cores := max(1, spec.cores)
		for i := 0; i < spec.replicas; i++ {
			w := 1
			if len(spec.weights) > 0 {
				w = spec.weights[i]
			}
			q := sim.NewQueue(eng, fmt.Sprintf("%s/%d", spec.name, i), cores)
			if ob != nil {
				ob.TraceQueue(q, queueID)
				queueID++
			}
			svc.AddBackend(q, per, w, nil)
			totalServers += cores
		}
		for _, f := range spec.faults {
			f, svc, per := f, svc, per
			from, to := cycles.FromSeconds(f.from), cycles.FromSeconds(f.to)
			if from >= horizon {
				continue
			}
			if f.factor > 0 {
				eng.At(from, func() { svc.SetCost(f.replica, cycles.Cycles(float64(per)*f.factor)) })
				if to < horizon {
					eng.At(to, func() { svc.SetCost(f.replica, per) })
				}
			} else {
				eng.At(from, func() { svc.SetDown(f.replica, true) })
				if to < horizon {
					eng.At(to, func() { svc.SetDown(f.replica, false) })
				}
			}
		}
		svcs[spec.name] = svc
	}
	for _, e := range g.edges {
		pol := e.pol.route()
		if pol.ConnSetup == 0 && !pol.KeepAlive {
			pol.ConnSetup = ingress.ConnSetupCost(rt)
		}
		hit := 0.0
		if e.pol != nil {
			hit = e.pol.cacheHit
		}
		gr.Connect(svcs[e.from], svcs[e.to], pol, hit)
	}
	entryPol := g.entryPol.route()
	if entryPol.ConnSetup == 0 {
		// The client handshake is always real; keep-alive only amortizes it.
		entryPol.ConnSetup = ingress.ConnSetupCost(rt)
	}
	gr.SetEntry(svcs[g.entryTo], entryPol)
	if ob != nil {
		gr.Observe(&ob.Stream, ob.Stream.Rec)
	}

	// Drive the entry and collect root latency. With observability on,
	// admissions count into the arrival series (series-only — the
	// graph's request span already marks the instant in the trace) and
	// root completions into the served/erred series.
	admit := gr.Admit
	if ob != nil {
		admit = func(client uint64) {
			ob.Arrive(eng.Now(), client)
			gr.Admit(client)
		}
	}
	var (
		rootLat   obs.Histogram
		completed uint64
		open      = t.load.Open()
		conns     = t.load.Population(totalServers)
		nextConn  uint64
	)
	gr.OnRootDone = func(_ uint64, lat cycles.Cycles, ok bool) {
		if ob != nil {
			if ok {
				ob.Served(eng.Now(), lat, 0)
			} else {
				ob.Erred(eng.Now(), lat)
			}
		}
		if ok {
			rootLat.Observe(lat)
			completed++
		}
		// A closed-loop connection re-issues as soon as it completes. One
		// whose request was refused at the instant it was issued (no
		// routable replica, an open breaker, shedding) closes instead:
		// re-issuing at the same instant would spin there, since virtual
		// time only moves when some request takes time.
		if !open && eng.Now() < horizon && (ok || lat > 0) {
			nextConn++
			admit(nextConn)
		}
	}
	if open {
		eng.DriveArrivals(t.load.Arrivals(), sim.NewRand(t.load.Seed), horizon, admit)
	} else {
		for i := 0; i < conns; i++ {
			nextConn++
			admit(nextConn)
		}
	}
	eng.Run(horizon)

	rep := &GraphReport{
		Runtime: rt.Name(),
		Kind:    KindName(p.cfg.Kind),
		Cloud:   CloudName(p.cfg.Cloud),
		Patched: p.cfg.MeltdownPatched,

		Entry:          g.entryTo,
		Seed:           t.load.Seed,
		VirtualSeconds: dur,

		Latency: LatencyStats{
			MeanUS: rootLat.MeanMicros(),
			P50US:  rootLat.Quantile(0.50).Micros(),
			P95US:  rootLat.Quantile(0.95).Micros(),
			P99US:  rootLat.Quantile(0.99).Micros(),
			MaxUS:  rootLat.Max().Micros(),
		},

		Admitted:    gr.Admitted(),
		Served:      gr.Served(),
		Failed:      gr.Failed(),
		Connections: conns,

		Routes:   gr.RouteStats(),
		Services: gr.ServiceStats(horizon),
	}
	rep.Throughput.RequestsPerSec = float64(completed) / dur
	rep.Throughput.OfferedPerSec = t.load.OfferedRate()
	if ob != nil {
		rep.TimeSeries, rep.trace = ob.Finish(eng.Fired())
	}
	return rep, nil
}

// JSON marshals the report as an indented JSON document.
func (r *GraphReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report for terminals.
func (r *GraphReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime:        %s (cloud %s)\n", r.Runtime, r.Cloud)
	fmt.Fprintf(&b, "graph:          entry %s, seed %d, %.2fs\n", r.Entry, r.Seed, r.VirtualSeconds)
	fmt.Fprintf(&b, "served:         %.0f requests/s", r.Throughput.RequestsPerSec)
	if r.Throughput.OfferedPerSec > 0 {
		fmt.Fprintf(&b, " (offered %.0f/s)", r.Throughput.OfferedPerSec)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", r.Failed)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency:        mean %.1fus, p50 %.1fus, p95 %.1fus, p99 %.1fus\n",
		r.Latency.MeanUS, r.Latency.P50US, r.Latency.P95US, r.Latency.P99US)
	writeIngressSections(&b, r.Routes, r.Services)
	return b.String()
}

// writeIngressSections renders route and service tables, shared by
// ClusterReport.String and GraphReport.String.
func writeIngressSections(b *strings.Builder, routes []RouteReport, services []ServiceReport) {
	for _, r := range routes {
		fmt.Fprintf(b, "route %-22s %d calls, %d ok, p50 %.1fus, p99 %.1fus",
			r.Route+":", r.Calls, r.Completed, r.P50US, r.P99US)
		if r.Failed > 0 {
			fmt.Fprintf(b, ", %d failed", r.Failed)
		}
		if r.Retries > 0 || r.Timeouts > 0 {
			fmt.Fprintf(b, ", %d timeouts / %d retries", r.Timeouts, r.Retries)
		}
		if r.BudgetDenied > 0 {
			fmt.Fprintf(b, ", %d budget-denied", r.BudgetDenied)
		}
		if r.Hedges > 0 {
			fmt.Fprintf(b, ", %d hedges (%d won)", r.Hedges, r.HedgeWins)
		}
		b.WriteByte('\n')
	}
	for _, s := range services {
		fmt.Fprintf(b, "service %-20s %d replicas, %d completions, %5.1f%% utilized",
			s.Service+":", s.Replicas, s.Completions, 100*s.Utilization)
		if s.Wasted > 0 {
			fmt.Fprintf(b, ", %d wasted (%.2fms burned)", s.Wasted, s.WastedMS)
		}
		b.WriteByte('\n')
	}
}
