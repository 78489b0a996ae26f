package xc

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim/par"
)

// SweepSpec describes a family of independent replications — a rate
// sweep, a seed sweep, a policy sweep, or any product of the three —
// run in parallel on a pool of min(GOMAXPROCS, replications) workers
// (internal/sim/par). Every replication is one single-threaded engine
// with its own platform (or fleet), so workers share nothing and the
// merged report is byte-identical for any GOMAXPROCS.
//
//	rep, err := xc.Sweep(xc.SweepSpec{
//		Kind:     xc.XContainer,
//		Workload: xc.App("memcached"),
//		Traffic:  xc.Traffic().Duration(0.5),
//		Rates:    []float64{100_000, 200_000, 400_000},
//		Seeds:    []uint64{1, 2, 3, 4, 5},
//	})
type SweepSpec struct {
	// Kind is the container architecture every replication boots;
	// Options are the platform options NewPlatform/NewCluster take.
	Kind    Kind
	Options []Option

	// Workload is the served application model (xc.App).
	Workload *Workload

	// Traffic is the base spec each point clones (nil = xc.Traffic()).
	// A point overrides its rate and seed; everything else — duration,
	// pacing, connections, workers, cores, containers — is shared.
	Traffic *TrafficSpec

	// Rates are the offered-rate sweep points in requests/s (0 = the
	// saturating closed loop). Empty means one point at the base
	// spec's arrival process. Setting Rates replaces the base spec's
	// arrival process, including any Burst.
	Rates []float64

	// Seeds are the replications per point; cross-seed mean and stddev
	// come from them. Empty means one replication at the base seed.
	Seeds []uint64

	// Cluster, when set, runs every replication as a fleet experiment
	// (Cluster.Serve) under this spec instead of a single platform.
	Cluster *ClusterSpec

	// Policies sweeps placement policies (cluster mode only); empty
	// means the Cluster spec's policy.
	Policies []PlacementPolicy
}

// SweepStat is one metric aggregated across a point's seeds.
type SweepStat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// SweepPointReport is one sweep point's cross-seed summary.
type SweepPointReport struct {
	Label  string  `json:"label"`
	Rate   float64 `json:"rate"` // 0 = closed loop
	Policy string  `json:"policy,omitempty"`
	Runs   int     `json:"runs"`

	Throughput  SweepStat `json:"throughput_rps"`
	MeanUS      SweepStat `json:"latency_mean_us"`
	P50US       SweepStat `json:"latency_p50_us"`
	P95US       SweepStat `json:"latency_p95_us"`
	P99US       SweepStat `json:"latency_p99_us"`
	Utilization SweepStat `json:"utilization"`
}

// SweepReport is the merged outcome of one Sweep: points in spec order
// (policy-major, then rate), each with cross-seed statistics. It
// marshals to stable JSON — ordered by point, never by completion.
type SweepReport struct {
	App     string `json:"app"`
	Runtime string `json:"runtime"`
	Kind    string `json:"kind"`
	Cloud   string `json:"cloud"`
	Mode    string `json:"mode"` // "platform" | "cluster"

	DurationSec float64  `json:"duration_sec"`
	Seeds       []uint64 `json:"seeds"`

	Points []SweepPointReport `json:"points"`
}

// sweepPoint is one (policy, rate) coordinate of the sweep grid.
type sweepPoint struct {
	rate      float64
	hasRate   bool
	policy    PlacementPolicy
	hasPolicy bool
}

// sweepRun is the per-replication measurement vector.
type sweepRun struct {
	tp, mean, p50, p95, p99, util float64
}

// Sweep runs the spec's replications on a GOMAXPROCS-wide worker pool
// and merges them into a deterministic report. Any replication error
// aborts the sweep (the first, in point order, is returned).
func Sweep(spec SweepSpec) (*SweepReport, error) {
	if spec.Workload == nil {
		return nil, fmt.Errorf("xc: sweep requires a workload")
	}
	if spec.Cluster == nil && len(spec.Policies) > 0 {
		return nil, fmt.Errorf("xc: policy sweeps need a Cluster spec")
	}
	base := spec.Traffic
	if base == nil {
		base = Traffic()
	}
	if err := base.validate(); err != nil {
		return nil, err
	}

	// Lay the grid out policy-major so the report reads as one table
	// per policy; an empty dimension contributes its base value.
	var points []sweepPoint
	policies := spec.Policies
	if len(policies) == 0 {
		pt := sweepPoint{}
		if spec.Cluster != nil {
			pt.policy = spec.Cluster.Policy
		}
		for _, r := range spec.Rates {
			pt.rate, pt.hasRate = r, true
			points = append(points, pt)
		}
		if len(spec.Rates) == 0 {
			points = append(points, pt)
		}
	} else {
		for _, pol := range policies {
			pt := sweepPoint{policy: pol, hasPolicy: true}
			for _, r := range spec.Rates {
				pt.rate, pt.hasRate = r, true
				points = append(points, pt)
			}
			if len(spec.Rates) == 0 {
				points = append(points, pt)
			}
		}
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{base.load.Seed}
	}

	runs, err := par.Cells(len(points)*len(seeds), func(i int) (sweepRun, error) {
		return sweepOne(spec, points[i/len(seeds)], seeds[i%len(seeds)], base)
	})
	if err != nil {
		return nil, err
	}

	rep := &SweepReport{
		App:         spec.Workload.Name(),
		Kind:        KindName(spec.Kind),
		Mode:        "platform",
		DurationSec: base.load.DurationSec,
		Seeds:       seeds,
	}
	if spec.Cluster != nil {
		rep.Mode = "cluster"
	}
	// Resolve display identity once, exactly as each replication did.
	probe, err := NewPlatform(spec.Kind, spec.Options...)
	if err != nil {
		return nil, err
	}
	rep.Runtime = probe.Runtime().Name()
	rep.Cloud = CloudName(probe.cfg.Cloud)

	for pi, pt := range points {
		slice := runs[pi*len(seeds) : (pi+1)*len(seeds)]
		point := SweepPointReport{
			Rate: pt.rate,
			Runs: len(slice),

			Throughput:  statOf(slice, func(r sweepRun) float64 { return r.tp }),
			MeanUS:      statOf(slice, func(r sweepRun) float64 { return r.mean }),
			P50US:       statOf(slice, func(r sweepRun) float64 { return r.p50 }),
			P95US:       statOf(slice, func(r sweepRun) float64 { return r.p95 }),
			P99US:       statOf(slice, func(r sweepRun) float64 { return r.p99 }),
			Utilization: statOf(slice, func(r sweepRun) float64 { return r.util }),
		}
		if pt.hasPolicy || spec.Cluster != nil {
			point.Policy = pt.policy.String()
		}
		switch {
		case pt.hasRate && pt.rate > 0:
			point.Label = rateLabel(pt.rate)
		case pt.hasRate:
			point.Label = "closed loop"
		case base.load.Rate > 0:
			point.Rate = base.load.Rate
			point.Label = rateLabel(base.load.Rate)
		case base.load.Burst != nil:
			point.Label = "burst"
		default:
			point.Label = "closed loop"
		}
		if pt.hasPolicy {
			point.Label = pt.policy.String() + ", " + point.Label
		}
		rep.Points = append(rep.Points, point)
	}
	return rep, nil
}

// sweepOne executes a single replication: one fresh platform or fleet,
// one engine, one (rate, policy, seed) coordinate.
func sweepOne(spec SweepSpec, pt sweepPoint, seed uint64, base *TrafficSpec) (sweepRun, error) {
	t := *base
	t.load.Seed = seed
	if pt.hasRate {
		t.load.Rate = pt.rate
		t.load.Burst = nil
	}
	if spec.Cluster != nil {
		cs := *spec.Cluster
		if pt.hasPolicy {
			cs.Policy = pt.policy
		}
		c, err := NewCluster(spec.Kind, spec.Options...)
		if err != nil {
			return sweepRun{}, err
		}
		rep, err := c.Serve(spec.Workload, cs, &t)
		if err != nil {
			return sweepRun{}, err
		}
		return sweepRun{
			tp:   rep.Throughput.RequestsPerSec,
			mean: rep.Latency.MeanUS,
			p50:  rep.Latency.P50US,
			p95:  rep.Latency.P95US,
			p99:  rep.Latency.P99US,
			util: rep.Queue.Utilization,
		}, nil
	}
	p, err := NewPlatform(spec.Kind, spec.Options...)
	if err != nil {
		return sweepRun{}, err
	}
	rep, err := p.Serve(spec.Workload, &t)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{
		tp:   rep.Throughput.RequestsPerSec,
		mean: rep.Latency.MeanUS,
		p50:  rep.Latency.P50US,
		p95:  rep.Latency.P95US,
		p99:  rep.Latency.P99US,
		util: rep.Queue.Utilization,
	}, nil
}

// rateLabel renders a rate in plain decimal notation — %g would flip
// to scientific form at 1e6, splitting one table across two formats.
func rateLabel(r float64) string {
	return "rate " + strconv.FormatFloat(r, 'f', -1, 64) + "/s"
}

// ParseRates parses a comma-separated rate list — the shared flag
// syntax of xcbench -sweep and xctl -sweep-rates. Every rate must be
// finite (strconv.ParseFloat also accepts "Inf" and "NaN") and at most
// one arrival per virtual cycle: faster rates all clamp to a one-cycle
// gap, so they would offer one load under different labels.
func ParseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("xc: bad sweep rate %q: %w", part, err)
		}
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("xc: sweep rate %q is not finite", part)
		}
		if r > cycles.Hz {
			return nil, fmt.Errorf("xc: sweep rate %q is above one arrival per cycle (%v/s)", part, float64(cycles.Hz))
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// SeedRange returns the n-replication seed list 1..n the CLIs use.
func SeedRange(n int) ([]uint64, error) {
	if n < 1 {
		return nil, fmt.Errorf("xc: sweep needs at least 1 seed, got %d", n)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds, nil
}

// statOf aggregates one metric across a point's runs in seed order;
// the fixed iteration order keeps the floating-point results identical
// for any worker count.
func statOf(runs []sweepRun, get func(sweepRun) float64) SweepStat {
	s := SweepStat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, r := range runs {
		v := get(r)
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(len(runs))
	for _, r := range runs {
		d := get(r) - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(runs)))
	return s
}

// JSON marshals the report as an indented JSON document.
func (r *SweepReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the sweep as a fixed-width table for terminals.
func (r *SweepReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app:      %s\n", r.App)
	fmt.Fprintf(&b, "runtime:  %s (cloud %s, %s sweep)\n", r.Runtime, r.Cloud, r.Mode)
	fmt.Fprintf(&b, "seeds:    %d per point\n", len(r.Seeds))
	fmt.Fprintf(&b, "%-24s %14s %12s %12s %12s %8s\n",
		"point", "req/s", "p50 us", "p95 us", "p99 us", "util")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-24s %10.0f±%-4.0f %12.1f %12.1f %12.1f %7.0f%%\n",
			p.Label, p.Throughput.Mean, p.Throughput.Std,
			p.P50US.Mean, p.P95US.Mean, p.P99US.Mean, 100*p.Utilization.Mean)
	}
	return b.String()
}
