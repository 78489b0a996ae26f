package ingress

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// The ingress hot path inherits the kernel's zero-alloc budget: calls
// and frames live in slot arenas, timers are typed events, and load
// balancing works on preallocated state — so a full request (admit,
// pick, attempt, timeout arm, hedge arm, complete, free) costs the
// garbage collector nothing in steady state. This guard is the ISSUE's
// acceptance criterion; a regression here taxes every multi-service
// scenario.

// fullGraph is the worst-case hot path: every robustness feature on,
// two tiers, closed-loop traffic keeping the arenas churning.
func fullGraph(seed uint64) (*sim.Engine, *Graph) {
	eng := sim.NewEngine()
	g := NewGraph(eng, seed)
	app := g.AddService("app", Sequential)
	cache := g.AddService("cache", Sequential)
	for i := 0; i < 4; i++ {
		app.AddBackend(sim.NewQueue(eng, "app", 1), cycles.FromMicros(12), 1+i%2, nil)
		cache.AddBackend(sim.NewQueue(eng, "cache", 1), cycles.FromMicros(3), 1, nil)
	}
	pol := RoutePolicy{
		LB: PowerOfTwo, ConnSetup: 30_000, KeepAlive: true, KeepAliveReqs: 32,
		Timeout: cycles.FromMicros(400), Retries: 2, Backoff: cycles.FromMicros(50),
		RetryBudget: 0.2, HedgeP: 0.95,
	}
	g.Connect(app, cache, pol, 0.8)
	g.SetEntry(app, pol)
	var next uint64 = 1 << 32
	g.OnRootDone = func(uint64, cycles.Cycles, bool) {
		next++
		g.Admit(next)
	}
	for i := 0; i < 64; i++ {
		g.Admit(uint64(i + 1))
	}
	return eng, g
}

func TestIngressHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	eng, g := fullGraph(3)
	until := cycles.FromSeconds(0.02)
	eng.Run(until) // warm-up: arenas, heaps, and rings grow to capacity
	if g.Served() == 0 {
		t.Fatal("warm-up served nothing")
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 50; i++ {
			until += cycles.FromSeconds(0.002)
			eng.Run(until)
		}
	}); n != 0 {
		t.Errorf("ingress hot path: %v allocations in 50 steady-state runs, want 0", n)
	}
}
