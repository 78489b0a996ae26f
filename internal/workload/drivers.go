package workload

import (
	"xcontainers/internal/apps"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/syscalls"
)

// Driver names the client load generator, for report labelling.
type Driver string

const (
	DriverAB      Driver = "ab"      // Apache ab: NGINX macro benchmark
	DriverMemtier Driver = "memtier" // memcached/redis, 1:10 SET:GET
	DriverWrk     Driver = "wrk"     // NGINX/PHP local-cluster experiments
)

// ServerLoad is one closed-loop server experiment: generator keeps
// Concurrency connections saturated against an app running under a
// runtime with Workers execution contexts on Cores physical cores.
type ServerLoad struct {
	Driver      Driver
	App         *apps.App
	RT          *runtimes.Runtime
	Workers     int // worker processes (0 = app default)
	Cores       int
	Concurrency int // generator connections (latency via Little's law)
}

// SyscallCoster returns the per-syscall cost function for the app under
// the runtime, steady state. For X-Containers the ABOM conversion
// fraction of the app's binary decides how many calls take the
// function-call path versus still trapping — coupling the macro model
// to the same site population Table 1 measures.
func SyscallCoster(rt *runtimes.Runtime, app *apps.App) func(syscalls.No) cycles.Cycles {
	f := ConversionFraction(app)
	return func(n syscalls.No) cycles.Cycles {
		fast := float64(rt.SyscallCost(n, true))
		slow := float64(rt.SyscallCost(n, false))
		return cycles.Cycles(f*fast + (1-f)*slow)
	}
}

// ConversionFraction is the steady-state share of the app's dynamic
// syscalls ABOM converts to function calls (patchable wrapper shapes).
func ConversionFraction(app *apps.App) float64 {
	f := 0.0
	for _, s := range app.Sites {
		switch s.Shape {
		case apps.ShapeCase1, apps.ShapeRex9, apps.ShapeGoStack:
			f += s.Weight
		}
	}
	return f
}

// RequestCost is the full per-request CPU demand of serving one request
// of the app under the runtime: user work, syscall paths, network
// packets, and the interrupt share.
func RequestCost(rt *runtimes.Runtime, app *apps.App) cycles.Cycles {
	return RequestCostN(rt, app, 1)
}

// RequestCostN is RequestCost for a container running procs worker
// processes: under Graphene, multi-process containers additionally pay
// IPC coordination on state-sharing syscalls (§5.5).
func RequestCostN(rt *runtimes.Runtime, app *apps.App, procs int) cycles.Cycles {
	coster := SyscallCoster(rt, app)
	total := app.RequestCycles(coster)
	if rt.Cfg.Kind == runtimes.Graphene && procs > 1 {
		for _, n := range app.ReqSyscalls {
			total += rt.GrapheneIPCCost(n, procs)
		}
	}
	total += cycles.Cycles(app.ReqPackets) * rt.NetPerPacket()
	// RX interrupts arrive batched roughly two packets per delivery.
	batches := (app.ReqPackets + 1) / 2
	total += cycles.Cycles(batches) * rt.InterruptCost()
	return total
}

// Result is one server-experiment outcome.
type LoadResult struct {
	Throughput float64 // requests per second
	LatencyUS  float64 // mean latency, microseconds (Little's law)
	PerRequest cycles.Cycles
}

// Run evaluates the closed-loop experiment on the discrete-event
// engine: the generator's fixed population saturates the server's
// worker queue, throughput is measured from completions, and mean
// latency follows from the in-flight population (Little's law — exact
// by construction for a closed loop). The analytic model this replaced
// survives as Analytic, which Run must agree with when saturated.
func (l ServerLoad) Run() LoadResult {
	res := TrafficLoad{
		Driver: l.Driver, App: l.App, RT: l.RT,
		Workers: l.Workers, Cores: l.Cores, Load: Load{Concurrency: l.Concurrency},
	}.Run()
	// TrafficLoad measures requests/s; the paper's generators report
	// client operations (memtier pipelines several per request).
	tput := res.Throughput
	if l.App.OpsPerRequest > 1 {
		tput *= float64(l.App.OpsPerRequest)
	}
	lat := float64(res.Population) / tput * 1e6
	return LoadResult{Throughput: tput, LatencyUS: lat, PerRequest: res.PerRequest}
}

// Analytic evaluates the experiment with the closed-form model: the
// server is CPU-bound (the paper saturates every server), so sustained
// throughput is parallelism × clock / per-request cost, and mean
// latency follows from the fixed in-flight population. It is the
// special case the simulated closed loop degenerates to at saturation,
// kept as the independent cross-check for TrafficLoad.
func (l ServerLoad) Analytic() LoadResult {
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
	tput := float64(parallel) * cycles.Hz / float64(per)
	if l.App.OpsPerRequest > 1 {
		tput *= float64(l.App.OpsPerRequest)
	}
	conc := l.Concurrency
	if conc <= 0 {
		conc = 2 * parallel
	}
	lat := float64(conc) / tput * 1e6
	return LoadResult{Throughput: tput, LatencyUS: lat, PerRequest: per}
}
