package workload

import (
	"testing"

	"xcontainers/internal/apps"
	"xcontainers/internal/runtimes"
)

// TestClosedLoopMatchesAnalytic is the refactor's equivalence gate: for
// every one of the nine runtime kinds, the discrete-event closed loop at
// saturation must reproduce the closed-form ServerLoad model within 2%.
func TestClosedLoopMatchesAnalytic(t *testing.T) {
	kinds := []runtimes.Kind{
		runtimes.Docker, runtimes.XenContainer, runtimes.XContainer,
		runtimes.GVisor, runtimes.ClearContainer, runtimes.Unikernel,
		runtimes.Graphene, runtimes.XenPVVM, runtimes.XenHVMVM,
	}
	app := apps.Nginx()
	for _, k := range kinds {
		load := ServerLoad{
			App: app, RT: rt(t, k, true), Workers: 1, Cores: 2, Concurrency: 16,
		}
		simmed := load.Run()
		analytic := load.Analytic()
		if r := simmed.Throughput / analytic.Throughput; r < 0.98 || r > 1.02 {
			t.Errorf("%v: sim/analytic throughput = %.4f, want within 2%% (sim %.1f analytic %.1f)",
				k, r, simmed.Throughput, analytic.Throughput)
		}
		if r := simmed.LatencyUS / analytic.LatencyUS; r < 0.98 || r > 1.02 {
			t.Errorf("%v: sim/analytic latency = %.4f, want within 2%%", k, r)
		}
	}
}

func TestClosedLoopMatchesAnalyticMultiWorker(t *testing.T) {
	// Multi-process containers (Graphene pays IPC) and thread-parallel
	// apps keep the equivalence too.
	for _, k := range []runtimes.Kind{runtimes.XContainer, runtimes.Graphene, runtimes.Docker} {
		for _, a := range []*apps.App{apps.Memcached(), apps.Nginx()} {
			load := ServerLoad{App: a, RT: rt(t, k, false), Workers: 4, Cores: 8}
			simmed, analytic := load.Run(), load.Analytic()
			if r := simmed.Throughput / analytic.Throughput; r < 0.98 || r > 1.02 {
				t.Errorf("%v/%s: sim/analytic = %.4f, want within 2%%", k, a.Name, r)
			}
		}
	}
}

func TestOpenLoopDeterministicForSeed(t *testing.T) {
	x := rt(t, runtimes.XContainer, true)
	mk := func(seed uint64) TrafficResult {
		return TrafficLoad{
			App: apps.Memcached(), RT: x, Cores: 2,
			Load: Load{Rate: 20_000, DurationSec: 0.5, Seed: seed},
		}.Run()
	}
	a, b := mk(42), mk(42)
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := mk(43)
	if a.Completed == c.Completed && a.P99US == c.P99US {
		t.Error("different seeds should perturb the trace")
	}
}

func TestOpenLoopLatencyGrowsTowardSaturation(t *testing.T) {
	// Queueing theory's basic shape: at 30% utilization sojourn is near
	// bare service; at 95% the queue dominates; above capacity it grows
	// toward the horizon. Closed-form Little's-law models cannot show
	// this — it is the point of the engine.
	x := rt(t, runtimes.XContainer, true)
	app := apps.Memcached()
	ops := float64(max(1, app.OpsPerRequest))
	cap := ServerLoad{App: app, RT: x, Cores: 1}.Analytic().Throughput / ops
	run := func(frac float64) TrafficResult {
		return TrafficLoad{
			App: app, RT: x, Cores: 1,
			Load: Load{Rate: frac * cap, DurationSec: 1, Seed: 7},
		}.Run()
	}
	light, heavy, over := run(0.3), run(0.95), run(1.5)
	service := light.PerRequest.Micros()
	if light.LatencyUS > 2*service {
		t.Errorf("30%% load mean latency %v µs, want near service time %v µs", light.LatencyUS, service)
	}
	if heavy.P99US <= light.P99US {
		t.Errorf("p99 must grow with load: %v <= %v", heavy.P99US, light.P99US)
	}
	if over.LatencyUS <= heavy.LatencyUS {
		t.Errorf("overload latency %v must exceed heavy-load %v", over.LatencyUS, heavy.LatencyUS)
	}
	// Throughput saturates at capacity even when offered 1.5x
	// (TrafficResult rates are requests/s, same unit as Rate).
	if r := over.Throughput / cap; r < 0.97 || r > 1.03 {
		t.Errorf("overload throughput = %.3f of capacity, want ≈1", r)
	}
	if over.MaxQueueDepth < 10*heavy.MaxQueueDepth/2 {
		t.Errorf("overload must build a deep backlog: %d vs %d", over.MaxQueueDepth, heavy.MaxQueueDepth)
	}
}

func TestBurstyTrafficHasFatterTail(t *testing.T) {
	// Same average offered rate, but delivered in on/off bursts: the
	// p99 must inflate relative to smooth Poisson arrivals.
	x := rt(t, runtimes.XContainer, true)
	app := apps.Memcached()
	cap := ServerLoad{App: app, RT: x, Cores: 1}.Analytic().Throughput /
		float64(max(1, app.OpsPerRequest))
	smooth := TrafficLoad{
		App: app, RT: x, Cores: 1,
		Load: Load{Rate: 0.5 * cap, DurationSec: 2, Seed: 11},
	}.Run()
	bursty := TrafficLoad{
		App: app, RT: x, Cores: 1,
		Load: Load{
			Burst:       &BurstSpec{PeakRate: 2 * cap, OnSeconds: 0.025, OffSeconds: 0.075},
			DurationSec: 2, Seed: 11,
		},
	}.Run()
	if bursty.P99US <= smooth.P99US {
		t.Errorf("bursty p99 %v µs must exceed smooth p99 %v µs at equal mean rate",
			bursty.P99US, smooth.P99US)
	}
	if bursty.MaxQueueDepth <= smooth.MaxQueueDepth {
		t.Errorf("bursts must build deeper queues: %d vs %d",
			bursty.MaxQueueDepth, smooth.MaxQueueDepth)
	}
}

func TestTrafficReplicasScaleCapacity(t *testing.T) {
	// Four single-core containers serve ≈4x one container's capacity
	// when both are driven well past it.
	x := rt(t, runtimes.XContainer, true)
	app := apps.Nginx()
	cap := ServerLoad{App: app, RT: x, Cores: 1}.Analytic().Throughput
	one := TrafficLoad{App: app, RT: x, Cores: 1, Load: Load{Rate: 8 * cap, DurationSec: 0.2, Seed: 3}}.Run()
	four := TrafficLoad{App: app, RT: x, Cores: 1, Replicas: 4, Load: Load{Rate: 8 * cap, DurationSec: 0.2, Seed: 3}}.Run()
	if r := four.Throughput / one.Throughput; r < 3.8 || r > 4.2 {
		t.Errorf("4 replicas = %.2fx one, want ≈4x", r)
	}
}

func TestDegenerateBurstNeverHangs(t *testing.T) {
	// Zero-length bursts and zero peak rates mean "no arrivals", not an
	// un-terminating draw.
	x := rt(t, runtimes.XContainer, true)
	for _, b := range []BurstSpec{
		{PeakRate: 0, OnSeconds: 0.01, OffSeconds: 0.01},
		{PeakRate: 1000, OnSeconds: 0, OffSeconds: 0.01},
	} {
		b := b
		res := TrafficLoad{
			App: apps.Memcached(), RT: x, Cores: 1,
			Load: Load{Burst: &b, DurationSec: 0.05, Seed: 1},
		}.Run()
		if res.Arrived != 0 {
			t.Errorf("degenerate burst %+v admitted %d requests, want 0", b, res.Arrived)
		}
	}
}

func TestTrafficPercentilesOrdered(t *testing.T) {
	x := rt(t, runtimes.Docker, true)
	res := TrafficLoad{
		App: apps.Redis(), RT: x, Cores: 2, Load: Load{Rate: 30_000, DurationSec: 0.5, Seed: 1},
	}.Run()
	if !(res.P50US <= res.P95US && res.P95US <= res.P99US && res.P99US <= res.MaxUS) {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v max=%v",
			res.P50US, res.P95US, res.P99US, res.MaxUS)
	}
	if res.LatencyUS <= 0 || res.Completed == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.Arrived < res.Completed {
		t.Errorf("completed %d > arrived %d", res.Completed, res.Arrived)
	}
}
