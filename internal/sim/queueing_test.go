package sim

import (
	"fmt"
	"math"
	"testing"

	"xcontainers/internal/cycles"
)

// The queueing oracle: a Poisson stream from DriveArrivals into a
// c-server Queue must reproduce the closed-form steady-state mean wait
// in queue — Erlang C for exponential service (M/M/c) and
// Pollaczek–Khinchine for fixed service at one server (M/D/1). Unlike
// the goldens, these numbers come from outside the simulator.
//
// Tolerance: each run is cut into oracleBatches consecutive batches of
// served jobs (after a warm-up that is discarded), and the estimate
// must lie within four batch-means standard errors of the exact value
// (about 1 in 10^4 for a normal estimate). The seeds are fixed, so the
// outcome is too; the bound states how far off a correct engine may be.
// A run must also be long enough that one standard error is under 3%
// of the exact wait (or under 0.005 service times, for the near-zero
// waits of a lightly loaded multi-server queue), so a noisy run cannot
// pass by width.

const (
	oracleService = 20_000 // mean service time, cycles (~6.9 µs)
	oracleBatches = 32
	oracleRelSE   = 0.03
	oracleAbsSE   = 0.005
)

// erlangCWait is the M/M/c mean wait in queue, in units of the mean
// service time, at per-server utilization rho.
func erlangCWait(c int, rho float64) float64 {
	a := rho * float64(c) // offered load in Erlangs
	term, sum := 1.0, 0.0 // term = a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho) // a^c / c! · 1/(1-ρ)
	pWait := tail / (sum + tail)
	return pWait / (float64(c) * (1 - rho))
}

// pkWaitDeterministic is the M/D/1 mean wait in queue in units of the
// service time: ρ / (2(1-ρ)).
func pkWaitDeterministic(rho float64) float64 { return rho / (2 * (1 - rho)) }

// simulateWait drives jobs Poisson arrivals at per-server utilization
// rho into a c-server queue and returns the batch-means estimate of
// the mean wait in queue, in service-time units, with its standard
// error.
func simulateWait(t *testing.T, c int, rho float64, expService bool, jobs int, seed uint64) (mean, se float64) {
	t.Helper()
	e := NewEngine()
	q := NewQueue(e, "oracle", c)
	warm := jobs / 10
	perBatch := (jobs - warm) / oracleBatches
	var batch [oracleBatches]float64
	started := 0
	q.OnStart = func(j Job) {
		started++
		if k := (started - warm - 1) / perBatch; started > warm && k < oracleBatches {
			batch[k] += float64(e.Now() - j.Born)
		}
	}
	svc := NewRand(seed ^ 0x5e1f1ce)
	admit := func(id uint64) {
		cost := cycles.Cycles(oracleService)
		if expService {
			cost = cycles.Cycles(oracleService * svc.Exp())
		}
		q.Arrive(Job{ID: id, Cost: cost, Born: e.Now()})
	}
	perSec := rho * float64(c) * cycles.Hz / oracleService
	// The arrival count is Poisson around the horizon's mean; 5% of
	// headroom is over 15 standard deviations at the smallest run.
	horizon := cycles.Cycles(1.05 * float64(jobs) * cycles.Hz / perSec)
	e.DriveArrivals(PoissonRate(perSec), NewRand(seed), horizon, admit)
	e.Run(horizon)
	if started < warm+perBatch*oracleBatches {
		t.Fatalf("only %d of %d jobs started", started, warm+perBatch*oracleBatches)
	}
	var sum, sq float64
	for i := range batch {
		m := batch[i] / float64(perBatch) / oracleService
		sum += m
		sq += m * m
	}
	n := float64(oracleBatches)
	mean = sum / n
	se = math.Sqrt((sq - sum*sum/n) / (n - 1) / n)
	return mean, se
}

func TestQueueMatchesClosedForms(t *testing.T) {
	jobs := 120_000
	if raceEnabled {
		jobs /= 4
	}
	type tc struct {
		name  string
		c     int
		exp   bool
		exact func(rho float64) float64
	}
	for _, m := range []tc{
		{"M/M/1", 1, true, func(rho float64) float64 { return erlangCWait(1, rho) }},
		{"M/M/4", 4, true, func(rho float64) float64 { return erlangCWait(4, rho) }},
		{"M/D/1", 1, false, pkWaitDeterministic},
	} {
		for i, rho := range []float64{0.3, 0.6, 0.85} {
			n := jobs
			if rho > 0.8 {
				n *= 6 // heavy traffic: batches decorrelate only over long runs
			}
			t.Run(fmt.Sprintf("%s/rho=%v", m.name, rho), func(t *testing.T) {
				got, se := simulateWait(t, m.c, rho, m.exp, n, uint64(11+i))
				want := m.exact(rho)
				t.Logf("mean wait %.4f (SE %.4f), exact %.4f service times", got, se, want)
				if se > max(oracleRelSE*want, oracleAbsSE) && !raceEnabled {
					t.Fatalf("standard error %.4f is too wide against the exact %.4f: run too short to check", se, want)
				}
				if d := math.Abs(got - want); d > 4*se {
					t.Fatalf("mean wait %.4f service times, exact %.4f: off by %.1f standard errors", got, want, d/se)
				}
			})
		}
	}
}
