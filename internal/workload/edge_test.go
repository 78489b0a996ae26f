package workload

import (
	"testing"

	"xcontainers/internal/apps"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
)

// TestZeroDurationAutoResolves: a zero (or unset) duration must resolve
// to a sane horizon in both loop modes, never a zero-length run.
func TestZeroDurationAutoResolves(t *testing.T) {
	x := rt(t, runtimes.XContainer, true)

	open := TrafficLoad{App: apps.Memcached(), RT: x, Load: Load{Rate: 10_000, DurationSec: 0, Seed: 1}}.Run()
	if open.DurationSec != 1 {
		t.Errorf("open-loop auto duration = %v, want 1s", open.DurationSec)
	}
	if open.Completed == 0 || open.Throughput <= 0 {
		t.Errorf("open-loop auto run served nothing: %+v", open)
	}

	closed := TrafficLoad{App: apps.Memcached(), RT: x, Load: Load{DurationSec: 0, Seed: 1}}.Run()
	if closed.DurationSec <= 0 {
		t.Errorf("closed-loop auto duration = %v, want > 0", closed.DurationSec)
	}
	if closed.Completed == 0 {
		t.Errorf("closed-loop auto run served nothing: %+v", closed)
	}

	// A tiny explicit horizon stays explicit and still terminates.
	tiny := TrafficLoad{App: apps.Memcached(), RT: x, Load: Load{Rate: 10_000, DurationSec: 1e-6, Seed: 1}}.Run()
	if tiny.DurationSec != 1e-6 {
		t.Errorf("tiny duration rewritten to %v", tiny.DurationSec)
	}
}

// TestOpenLoopFarAboveCapacity: offered load two orders of magnitude
// past capacity must saturate gracefully — completions bounded by
// capacity, utilization pinned at 1, and the backlog exploding into the
// tail — rather than hanging or overflowing.
func TestOpenLoopFarAboveCapacity(t *testing.T) {
	x := rt(t, runtimes.XContainer, true)
	app := apps.Memcached()
	per := RequestCost(x, app)
	capacity := cycles.Hz / float64(per) // one server's requests/s

	res := TrafficLoad{
		App: app, RT: x, Workers: 1, Cores: 1,
		Load: Load{Rate: 100 * capacity, DurationSec: 0.2, Seed: 9},
	}.Run()

	if res.Arrived < uint64(90*capacity*0.2) {
		t.Errorf("arrived %d, want ~%0.f offered arrivals", res.Arrived, 100*capacity*0.2)
	}
	if got := float64(res.Completed) / 0.2; got > 1.01*capacity {
		t.Errorf("completed %.0f req/s, exceeds capacity %.0f", got, capacity)
	}
	if res.Completed == 0 {
		t.Error("served nothing at saturation")
	}
	if res.Utilization < 0.99 || res.Utilization > 1 {
		t.Errorf("utilization = %v, want pinned at 1", res.Utilization)
	}
	if res.MaxQueueDepth < int(float64(res.Arrived-res.Completed)) {
		t.Errorf("max depth %d does not reflect the %d-job backlog",
			res.MaxQueueDepth, res.Arrived-res.Completed)
	}
	if res.P99US <= res.P50US {
		t.Errorf("p99 %.1f ≤ p50 %.1f under overload; queueing delay missing", res.P99US, res.P50US)
	}
}

// TestBurstZeroOffPeriod: a burst process with no silences is a
// continuous stream at the peak rate — the degenerate shape must not
// hang the phase machinery and must offer the full peak rate.
func TestBurstZeroOffPeriod(t *testing.T) {
	x := rt(t, runtimes.XContainer, true)
	burst := TrafficLoad{
		App: apps.Memcached(), RT: x, Cores: 2,
		Load: Load{
			Burst:       &BurstSpec{PeakRate: 20_000, OnSeconds: 0.01, OffSeconds: 0},
			DurationSec: 0.5, Seed: 4,
		},
	}.Run()

	if burst.OfferedRate != 20_000 {
		t.Errorf("offered rate = %v, want the full peak 20000 with zero off-period", burst.OfferedRate)
	}
	// With no silences the arrival count must be close to a plain
	// Poisson stream of the same rate (same mean, same horizon).
	want := 20_000 * 0.5
	if f := float64(burst.Arrived) / want; f < 0.9 || f > 1.1 {
		t.Errorf("arrived %d, want within 10%% of %.0f", burst.Arrived, want)
	}
	if burst.Completed == 0 {
		t.Error("zero-off burst served nothing")
	}

	again := TrafficLoad{
		App: apps.Memcached(), RT: x, Cores: 2,
		Load: Load{
			Burst:       &BurstSpec{PeakRate: 20_000, OnSeconds: 0.01, OffSeconds: 0},
			DurationSec: 0.5, Seed: 4,
		},
	}.Run()
	if burst != again {
		t.Errorf("zero-off burst diverged across identical runs:\n%+v\n%+v", burst, again)
	}
}
