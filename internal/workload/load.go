package workload

import (
	"fmt"
	"math"

	"xcontainers/internal/sim"
)

// BurstSpec modulates open-loop traffic with an on/off process: bursts
// at PeakRate alternating with silences, exponentially distributed
// around the given mean durations.
type BurstSpec struct {
	PeakRate   float64 // requests/s while bursting
	OnSeconds  float64 // mean burst duration
	OffSeconds float64 // mean silence duration
}

// Load is the offered load every traffic driver shares: a single
// container's TrafficLoad, a cluster run, and a service graph's entry.
// Two modes:
//
//   - open loop (Rate > 0 or Burst set): arrivals are an external
//     process — Poisson at Rate, fixed-gap if Paced, or bursty on/off —
//     independent of how the server keeps up, so queueing delay and
//     tail latency build under load exactly as they do for real
//     internet traffic;
//   - closed loop (otherwise): a fixed population of Concurrency
//     connections, each immediately re-issuing on completion — the
//     paper's saturating ab/wrk/memtier drivers.
type Load struct {
	// Rate, when > 0, switches to open loop at that many requests/s.
	Rate float64
	// Paced makes open-loop gaps uniform instead of Poisson.
	Paced bool
	// Burst overrides Rate with an on/off modulated process.
	Burst *BurstSpec
	// Concurrency is the closed-loop population (0 = two per server).
	Concurrency int
	// DurationSec is the simulated horizon in virtual seconds (0 = 1 s;
	// see Duration).
	DurationSec float64
	// Seed selects the run's randomness streams.
	Seed uint64
}

// Validate rejects loads no driver can give a meaningful answer for:
// negative or non-finite rates and horizons, negative populations, and
// bursts that could never arrive. An infinite rate would clamp every
// gap to one cycle and queue arrivals until memory runs out; NaN
// compares false against every bound and would silently run a closed
// loop.
func (l Load) Validate() error {
	if !finite(l.Rate) || l.Rate < 0 {
		return fmt.Errorf("traffic rate %v must be finite and not negative", l.Rate)
	}
	if !finite(l.DurationSec) || l.DurationSec < 0 {
		return fmt.Errorf("traffic duration %v must be finite and not negative", l.DurationSec)
	}
	if l.Concurrency < 0 {
		return fmt.Errorf("traffic connections %d must not be negative", l.Concurrency)
	}
	if b := l.Burst; b != nil && !(finite(b.PeakRate) && finite(b.OnSeconds) && finite(b.OffSeconds) &&
		b.PeakRate > 0 && b.OnSeconds > 0 && b.OffSeconds >= 0) {
		return fmt.Errorf("burst needs a finite positive peak rate and on-duration (and a finite non-negative off-duration), got peak=%v on=%v off=%v",
			b.PeakRate, b.OnSeconds, b.OffSeconds)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Duration resolves the horizon in virtual seconds: DurationSec, or
// 1 s when unset.
func (l Load) Duration() float64 {
	if l.DurationSec <= 0 {
		return 1
	}
	return l.DurationSec
}

// Open reports whether arrivals are an external process (open loop)
// rather than a re-issuing population (closed loop).
func (l Load) Open() bool { return l.Rate > 0 || l.Burst != nil }

// Arrivals builds the open-loop arrival process: Burst takes precedence
// over Paced, and Paced over Poisson.
func (l Load) Arrivals() sim.Arrivals {
	switch {
	case l.Burst != nil:
		return sim.NewBursty(l.Burst.PeakRate, l.Burst.OnSeconds, l.Burst.OffSeconds)
	case l.Paced:
		return sim.FixedRate(l.Rate)
	default:
		return sim.PoissonRate(l.Rate)
	}
}

// OfferedRate is the mean offered rate in requests/s: Rate, or a
// burst's duty-cycle mean PeakRate·On/(On+Off). A closed loop offers 0.
func (l Load) OfferedRate() float64 {
	switch b := l.Burst; {
	case b != nil:
		return b.PeakRate * b.OnSeconds / (b.OnSeconds + b.OffSeconds)
	case l.Rate > 0:
		return l.Rate
	}
	return 0
}

// Population resolves the closed-loop population over servers queue
// servers: Concurrency, or two jobs per server when unset, so every
// server saturates. An open loop has none.
func (l Load) Population(servers int) int {
	switch {
	case l.Open():
		return 0
	case l.Concurrency > 0:
		return l.Concurrency
	}
	return 2 * servers
}
