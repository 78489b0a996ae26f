package bench

import (
	"runtime"
	"time"

	"xcontainers/internal/abom"
	"xcontainers/internal/apps"
	"xcontainers/internal/arch"
	"xcontainers/internal/chaos"
	"xcontainers/internal/cluster"
	"xcontainers/internal/core"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// PerfResult is one kernel perf probe: a hot loop's throughput and
// allocation budget on a canonical workload shape — tier-2 events
// through the simulation kernel, or tier-1 instructions through the
// interpreter (for those probes an "event" is one simulated
// instruction, so NsPerEvent is ns/instruction). The cmd/xcperf
// benchmark reports them as its probe.* metrics.
type PerfResult struct {
	Name           string  `json:"name"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// measure runs fn once for warm-up, then loops it for roughly the
// budget and reports per-event wall time and allocations. fn returns
// how many kernel events it dispatched.
func measure(name string, budget time.Duration, fn func(seed uint64) uint64) PerfResult {
	fn(1) // warm-up: page in code, size steady-state pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var events uint64
	start := time.Now()
	seed := uint64(2)
	for time.Since(start) < budget {
		events += fn(seed)
		seed++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := PerfResult{Name: name, Events: events}
	if events > 0 {
		res.EventsPerSec = float64(events) / elapsed.Seconds()
		res.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
		res.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		res.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	return res
}

// KernelPerf measures the simulation kernel's hot paths: open-loop
// traffic (the workload/netsim/cluster arrival shape) and a saturating
// closed loop (the paper's load-generator shape). budget is wall time
// per probe; 0 means a CI-friendly quarter second.
func KernelPerf(budget time.Duration) []PerfResult {
	if budget <= 0 {
		budget = 250 * time.Millisecond
	}
	const service = cycles.Cycles(29_000) // 10 µs per request
	horizon := cycles.FromSeconds(0.25)

	openLoop := func(seed uint64) uint64 {
		e := sim.NewEngine()
		q := sim.NewQueue(e, "perf", 4)
		var latency obs.Histogram
		q.OnDone = func(j sim.Job) { latency.Observe(e.Now() - j.Born) }
		rate := 0.8 * 4 * float64(cycles.Hz) / float64(service)
		e.DriveArrivals(sim.PoissonRate(rate), sim.NewRand(seed), horizon, func(id uint64) {
			q.Arrive(sim.Job{ID: id, Cost: service, Born: e.Now()})
		})
		e.Run(horizon)
		return e.Fired()
	}

	closedLoop := func(uint64) uint64 {
		e := sim.NewEngine()
		q := sim.NewQueue(e, "perf", 4)
		q.OnDone = func(j sim.Job) {
			if e.Now() < horizon {
				q.Arrive(sim.Job{ID: j.ID, Cost: service, Born: e.Now()})
			}
		}
		for c := 0; c < 8; c++ {
			q.Arrive(sim.Job{ID: uint64(c + 1), Cost: service})
		}
		e.Run(horizon)
		return e.Fired()
	}

	// ingressHotPath is the L7 tier's request shape: a closed loop
	// through a four-replica service behind power-of-two routing with
	// keep-alive accounting — the BenchmarkIngressHotPath scenario.
	ingressHotPath := func(seed uint64) uint64 {
		e := sim.NewEngine()
		g := ingress.NewGraph(e, seed)
		svc := g.AddService("svc", ingress.Sequential)
		for i := 0; i < 4; i++ {
			svc.AddBackend(sim.NewQueue(e, "svc", 1), service, 1, nil)
		}
		g.SetEntry(svc, ingress.RoutePolicy{
			LB: ingress.PowerOfTwo, KeepAlive: true, ConnSetup: 3_000,
		})
		var next uint64 = 16
		g.OnRootDone = func(uint64, cycles.Cycles, bool) {
			if e.Now() < horizon {
				next++
				g.Admit(next)
			}
		}
		for c := uint64(1); c <= 16; c++ {
			g.Admit(c)
		}
		e.Run(horizon)
		return e.Fired()
	}

	return []PerfResult{
		measure("sim-open-loop", budget, openLoop),
		measure("sim-closed-loop", budget, closedLoop),
		measure("ingress-hotpath", budget, ingressHotPath),
		measure("cluster-fleet-small", budget, clusterFleet(50, 0, false)),
		measure("cluster-fleet-sharded", budget, clusterFleet(1000, 4, false)),
		measure("trace-overhead", budget, clusterFleet(1000, 4, true)),
		measure("chaos-probe-overhead", budget, chaosProbedFleet(1000, 4)),
		measure("tier1-syscall-loop", budget, tier1SyscallLoop()),
		measure("tier1-abom-warmup", budget, tier1ABOMWarmup),
		measure("tier1-superblock-loop", budget, tier1SuperblockLoop()),
		measure("tier1-smp-scaling", budget, tier1SMPScaling()),
	}
}

// clusterFleet probes the fleet orchestrator end to end — flyweight
// construction plus a closed-loop serve — at two canonical scales: a
// 50-node fleet on the single engine, and a 1000-node fleet on the
// epoch-sharded engine at 4 shards (the planet-scale execution path).
// With observed set it arms the trace ring and sampler on the sharded
// scenario, so trend dashboards track what observability costs per
// event next to the untraced fleet probes.
func clusterFleet(nodes, shards int, observed bool) func(uint64) uint64 {
	app, err := apps.ByName("memcached")
	if err != nil {
		return func(uint64) uint64 { return 0 }
	}
	cfg := cluster.Config{
		Platform: core.PlatformConfig{
			Kind: runtimes.XContainer, MeltdownPatched: true,
			Cloud: runtimes.LocalCluster, FastToolstack: true,
		},
		App:       app,
		Nodes:     nodes,
		MaxNodes:  nodes,
		NodeCores: 4,
		Replicas:  nodes,
		Policy:    cluster.Spread,
		Shards:    shards,
	}
	if observed {
		cfg.Observe = &cluster.ObserveConfig{WindowUS: 1000}
	}
	return func(seed uint64) uint64 {
		c, err := cluster.New(cfg)
		if err != nil {
			return 0
		}
		if _, err := c.Run(cluster.Traffic{
			Concurrency: 10 * nodes, DurationSec: 0.005, Seed: seed,
		}); err != nil {
			return 0
		}
		return c.EventsFired()
	}
}

// chaosProbedFleet is the trace-overhead pattern for the self-healing
// tier: the 1000-node sharded fleet with a fault-free chaos plan whose
// health-probe sweep fires every 0.5 ms — ten fleet-wide sweeps per
// run. Compared against cluster-fleet-sharded, the delta is the cost
// of probing per event; the sweep itself is allocation-free.
func chaosProbedFleet(nodes, shards int) func(uint64) uint64 {
	app, err := apps.ByName("memcached")
	if err != nil {
		return func(uint64) uint64 { return 0 }
	}
	cfg := cluster.Config{
		Platform: core.PlatformConfig{
			Kind: runtimes.XContainer, MeltdownPatched: true,
			Cloud: runtimes.LocalCluster, FastToolstack: true,
		},
		App:       app,
		Nodes:     nodes,
		MaxNodes:  nodes,
		NodeCores: 4,
		Replicas:  nodes,
		Policy:    cluster.Spread,
		Shards:    shards,
		Chaos:     &chaos.Plan{Probes: &chaos.Probes{IntervalSec: 0.0005}},
	}
	return func(seed uint64) uint64 {
		c, err := cluster.New(cfg)
		if err != nil {
			return 0
		}
		if _, err := c.Run(cluster.Traffic{
			Concurrency: 10 * nodes, DurationSec: 0.005, Seed: seed,
		}); err != nil {
			return 0
		}
		return c.EventsFired()
	}
}

// perfEnv absorbs traps at zero model cost, so the tier-1 probes time
// the interpreter itself rather than a runtime's charging policy.
type perfEnv struct{ ab *abom.ABOM }

func (e perfEnv) Syscall(cpu *arch.CPU) arch.Action {
	if e.ab != nil {
		e.ab.OnSyscall(cpu.Text, cpu.RIP-2, cpu.Regs[arch.RAX])
	}
	return arch.ActionContinue
}

func (e perfEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	ret := cpu.ReadStack(0)
	if b, n := cpu.Text.Peek8(ret); abom.IsReturnSkip(b, n) {
		cpu.PokeStack(0, ret+2)
	}
	cpu.Ret()
	return arch.ActionContinue
}

func (e perfEnv) InvalidOpcode(cpu *arch.CPU) bool {
	if e.ab == nil {
		return false
	}
	fixed, ok := e.ab.FixupInvalidOpcode(cpu.Text, cpu.RIP)
	if !ok {
		return false
	}
	cpu.RIP = fixed
	return true
}

// tier1SyscallLoop probes steady-state interpretation: the UnixBench
// System Call loop shape on one CPU, reset and rerun — the block
// cache and stack pages stay warm, so this is the 0-alloc fast path.
func tier1SyscallLoop() func(uint64) uint64 {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(1000, func(a *arch.Assembler) { a.SyscallN(39) })
	a.Hlt()
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(a.MustAssemble(), perfEnv{}, clk, &cycles.Default)
	return func(uint64) uint64 {
		before := cpu.Counters.Instructions
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			return 0
		}
		return cpu.Counters.Instructions - before
	}
}

// tier1SuperblockLoop probes the trace tier's steady state: a hot
// compute loop whose successor chain crossed the heat threshold during
// warm-up, so every measured run dispatches once into the formed
// superblock and executes straight-line records until the loop falls
// through. Contrast with tier1-syscall-loop (block-chain dispatch with
// env calls) to see what trace formation buys.
func tier1SuperblockLoop() func(uint64) uint64 {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(1000, func(a *arch.Assembler) { a.Nop().Work(10).PushRax().PopRax() })
	a.Hlt()
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(a.MustAssemble(), perfEnv{}, clk, &cycles.Default)
	return func(uint64) uint64 {
		before := cpu.Counters.Instructions
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			return 0
		}
		return cpu.Counters.Instructions - before
	}
}

// tier1SMPScaling probes the deterministic SMP scheduler end to end:
// four vCPUs of one container in lockstep quanta on up to GOMAXPROCS
// host workers. Events are instructions summed across lanes, so
// NsPerEvent falls with host core count while results stay
// byte-identical — the tentpole scaling claim as a trend line.
func tier1SMPScaling() func(uint64) uint64 {
	rt, err := runtimes.New(runtimes.Config{
		Kind: runtimes.XContainer, Patched: true, Cloud: runtimes.LocalCluster,
	})
	if err != nil {
		return func(uint64) uint64 { return 0 }
	}
	c, err := rt.NewContainer("perf-smp", 4, false)
	if err != nil {
		return func(uint64) uint64 { return 0 }
	}
	clk := &cycles.Clock{}
	var procs []*runtimes.Proc
	for i := 0; i < 4; i++ {
		a := arch.NewAssembler(arch.UserTextBase)
		a.Loop(500, func(a *arch.Assembler) {
			a.Work(500)
			a.SyscallN(39)
		})
		a.Hlt()
		p, err := rt.StartProcess(c, a.MustAssemble(), clk)
		if err != nil {
			return func(uint64) uint64 { return 0 }
		}
		procs = append(procs, p)
	}
	return func(uint64) uint64 {
		var before uint64
		for _, p := range procs {
			before += p.CPU.Counters.Instructions
			p.CPU.Reset()
		}
		if _, err := rt.RunConcurrent(procs, 0, 1<<40); err != nil {
			return 0
		}
		var after uint64
		for _, p := range procs {
			after += p.CPU.Counters.Instructions
		}
		return after - before
	}
}

// tier1ABOMWarmup probes the warm-up regime: fresh text every run,
// live ABOM patches invalidating the block cache mid-execution.
func tier1ABOMWarmup(uint64) uint64 {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(200, func(a *arch.Assembler) {
		a.SyscallN(39)   // 7-byte case 1
		a.SyscallN64(39) // 9-byte two-phase
	})
	a.Hlt()
	cpu := arch.NewCPU(a.MustAssemble(), perfEnv{ab: abom.New()}, &cycles.Clock{}, &cycles.Default)
	if err := cpu.Run(1 << 30); err != nil {
		return 0
	}
	return cpu.Counters.Instructions
}
