package workload

import (
	"fmt"
	"math"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// TestLoadDecisions pins the decisions every traffic driver takes from
// Load: open or closed loop, which arrival process (Burst over Paced
// over Poisson), the mean offered rate, the default closed-loop
// population of two per server, and the default 1 s horizon.
func TestLoadDecisions(t *testing.T) {
	burst := &BurstSpec{PeakRate: 4000, OnSeconds: 0.25, OffSeconds: 0.75}
	cases := []struct {
		name    string
		load    Load
		arr     sim.Arrivals // nil = closed loop
		offered float64
		pop     int // over 4 servers
		dur     float64
	}{
		{"closed default", Load{}, nil, 0, 8, 1},
		{"closed explicit", Load{Concurrency: 5, DurationSec: 2}, nil, 0, 5, 2},
		{"paced alone stays closed", Load{Paced: true}, nil, 0, 8, 1},
		{"poisson", Load{Rate: 1000, Concurrency: 5, DurationSec: 0.5}, sim.PoissonRate(1), 1000, 0, 0.5},
		{"paced", Load{Rate: 1000, Paced: true}, sim.FixedRate(1), 1000, 0, 1},
		{"burst", Load{Burst: burst}, sim.NewBursty(1, 1, 1), 1000, 0, 1},
		{"burst over paced", Load{Rate: 50, Paced: true, Burst: burst}, sim.NewBursty(1, 1, 1), 1000, 0, 1},
		{"burst without silence", Load{Burst: &BurstSpec{PeakRate: 4000, OnSeconds: 0.25}}, sim.NewBursty(1, 1, 1), 4000, 0, 1},
	}
	for _, c := range cases {
		if open := c.load.Open(); open != (c.arr != nil) {
			t.Errorf("%s: Open() = %v, want %v", c.name, open, c.arr != nil)
		}
		if c.arr != nil {
			if got, want := fmt.Sprintf("%T", c.load.Arrivals()), fmt.Sprintf("%T", c.arr); got != want {
				t.Errorf("%s: arrival process %s, want %s", c.name, got, want)
			}
		}
		if got := c.load.OfferedRate(); got != c.offered {
			t.Errorf("%s: OfferedRate() = %v, want %v", c.name, got, c.offered)
		}
		if got := c.load.Population(4); got != c.pop {
			t.Errorf("%s: Population(4) = %d, want %d", c.name, got, c.pop)
		}
		if got := c.load.Duration(); got != c.dur {
			t.Errorf("%s: Duration() = %v, want %v", c.name, got, c.dur)
		}
		if err := c.load.Validate(); err != nil {
			t.Errorf("%s: valid load rejected: %v", c.name, err)
		}
	}
}

func TestLoadValidateRejects(t *testing.T) {
	for i, l := range []Load{
		{Rate: -1},
		{DurationSec: -0.5},
		{Concurrency: -4},
		{Burst: &BurstSpec{PeakRate: 0, OnSeconds: 0.01, OffSeconds: 0.01}},    // no peak rate
		{Burst: &BurstSpec{PeakRate: 1000, OnSeconds: 0, OffSeconds: 0.01}},    // zero-length bursts
		{Burst: &BurstSpec{PeakRate: 1000, OnSeconds: 0.01, OffSeconds: -0.1}}, // negative silence
		{Rate: math.Inf(1)},
		{Rate: math.NaN()},
		{DurationSec: math.Inf(1)},
		{DurationSec: math.NaN()},
		{Burst: &BurstSpec{PeakRate: math.NaN(), OnSeconds: 0.01}},
		{Burst: &BurstSpec{PeakRate: 1000, OnSeconds: math.Inf(1)}},
		{Burst: &BurstSpec{PeakRate: 1000, OnSeconds: 0.01, OffSeconds: math.NaN()}},
		{Rate: cycles.Hz * 1.0000001}, // above one arrival per cycle
		{Rate: 1e300},
		{Burst: &BurstSpec{PeakRate: 2 * cycles.Hz, OnSeconds: 0.01}},
	} {
		if err := l.Validate(); err == nil {
			t.Errorf("invalid load %d accepted", i)
		}
	}
	// One arrival per cycle is the fastest rate the clock can represent.
	for _, l := range []Load{{Rate: cycles.Hz}, {Burst: &BurstSpec{PeakRate: cycles.Hz, OnSeconds: 0.01}}} {
		if err := l.Validate(); err != nil {
			t.Errorf("load at one arrival per cycle rejected: %v", err)
		}
	}
}
