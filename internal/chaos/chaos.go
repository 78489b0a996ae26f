// Package chaos is the declarative fault model for the cluster tier: a
// Plan is a seeded, typed list of fault events — node crashes
// (correlated multi-node), gray failures (service-cost multiplier plus
// an elevated error rate for a window), ingress↔replica network
// partitions, and slow-recovery restarts — plus an optional health
// probe configuration feeding the per-replica failure Detector.
//
// The package itself is engine-agnostic: it validates and parses plans
// and runs the detector state machine, while the executor in
// internal/cluster lowers faults onto the event kernel. Determinism
// contract: every random choice a plan implies (crash victims, gray
// targets, partition sets, error coins) is drawn from streams derived
// from the run seed, never from the arrival or routing streams, so
// arming a plan perturbs only the faults it injects and results are
// byte-identical for any Shards × workers split.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the fault taxonomy.
type Kind uint8

const (
	// KindCrash fails Count whole nodes at AtSec — the legacy
	// FailNodeAtSec semantics, generalized to correlated multi-node
	// failures (Count victims drawn in one barrier instant).
	KindCrash Kind = iota

	// KindGray marks replicas slow-not-dead for [AtSec, AtSec+Dur):
	// per-request cost is multiplied by CostFactor and completions
	// fail with probability ErrorRate. Targets are Count seeded
	// replicas, or every replica on deploy version Version — the
	// poisoned-canary lever.
	KindGray

	// KindPartition makes a seeded replica set unreachable from the
	// ingress tier for [AtSec, AtSec+Dur): attempts routed there are
	// lost in the network and only timeouts reap them, while the
	// replicas themselves keep draining whatever they already hold.
	KindPartition

	// KindRestart crash-restarts Count seeded replicas at AtSec: the
	// queue contents drop, and the replica is dark for the cold-boot
	// blackout plus RecoverySec (the slow-recovery knob).
	KindRestart
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindGray:
		return "gray"
	case KindPartition:
		return "partition"
	case KindRestart:
		return "restart"
	}
	return fmt.Sprintf("chaos.Kind(%d)", uint8(k))
}

// Fault is one typed fault event in a Plan. Zero values of the numeric
// knobs mean "default", resolved by Normalize.
type Fault struct {
	Kind        Kind
	AtSec       float64 // injection instant (virtual seconds)
	DurationSec float64 // window length for gray / partition
	Count       int     // victims: nodes (crash) or replicas (others)
	Frac        float64 // partition: fraction of the fleet instead of Count
	CostFactor  float64 // gray: service-cost multiplier (default 4)
	ErrorRate   float64 // gray: per-completion error probability
	RecoverySec float64 // restart: extra blackout beyond the cold boot
	Version     int     // gray: target replicas on this deploy version
}

// Probes configures the periodic health sweep. A probe is a
// control-plane event at zero model cost: at every interval each live
// replica is checked — unreachable, suspended, or dead replicas fail
// the probe, as does (when TimeoutUS > 0) a replica whose estimated
// queue wait exceeds the timeout, and gray replicas fail with their
// error rate (coin from the dedicated probe stream, drawn in replica-id
// order so sweeps are shard-layout invariant).
type Probes struct {
	IntervalSec    float64 // sweep period (default 5ms)
	TimeoutUS      float64 // estimated-wait threshold; 0 disables it
	UnhealthyAfter int     // consecutive failures to eject (default 3)
	HealthyAfter   int     // consecutive successes to readmit (default 2)
}

// Plan is a full chaos scenario: the fault timeline plus the optional
// health-probe sweep that detects and heals it.
type Plan struct {
	Probes *Probes
	Faults []Fault
}

// Normalize fills defaults in place and validates; it is idempotent.
func (p *Plan) Normalize() error {
	if p == nil {
		return nil
	}
	if pr := p.Probes; pr != nil {
		if !finite(pr.IntervalSec, pr.TimeoutUS) {
			return fmt.Errorf("chaos: probes have a non-finite value: %+v", *pr)
		}
		if pr.IntervalSec == 0 {
			pr.IntervalSec = 0.005
		}
		if pr.IntervalSec < 0 {
			return fmt.Errorf("chaos: probe interval %v < 0", pr.IntervalSec)
		}
		if pr.TimeoutUS < 0 {
			return fmt.Errorf("chaos: probe timeout %v < 0", pr.TimeoutUS)
		}
		if pr.UnhealthyAfter == 0 {
			pr.UnhealthyAfter = 3
		}
		if pr.HealthyAfter == 0 {
			pr.HealthyAfter = 2
		}
		if pr.UnhealthyAfter < 1 || pr.HealthyAfter < 1 {
			return fmt.Errorf("chaos: probe thresholds must be >= 1")
		}
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if !finite(f.AtSec, f.DurationSec, f.Frac, f.CostFactor, f.ErrorRate, f.RecoverySec) {
			return fmt.Errorf("chaos: fault %d (%s) has a non-finite value: %+v", i, f.Kind, *f)
		}
		if f.AtSec < 0 {
			return fmt.Errorf("chaos: fault %d (%s) at %v < 0", i, f.Kind, f.AtSec)
		}
		switch f.Kind {
		case KindCrash:
			if f.Count == 0 {
				f.Count = 1
			}
		case KindGray:
			if f.DurationSec <= 0 {
				return fmt.Errorf("chaos: gray fault %d needs a duration", i)
			}
			if f.CostFactor == 0 {
				f.CostFactor = 4
			}
			if f.CostFactor < 1 {
				return fmt.Errorf("chaos: gray fault %d cost factor %v < 1", i, f.CostFactor)
			}
			if f.ErrorRate < 0 || f.ErrorRate >= 1 {
				return fmt.Errorf("chaos: gray fault %d error rate %v outside [0,1)", i, f.ErrorRate)
			}
			if f.Count == 0 && f.Version == 0 {
				f.Count = 1
			}
		case KindPartition:
			if f.DurationSec <= 0 {
				return fmt.Errorf("chaos: partition fault %d needs a duration", i)
			}
			if f.Frac < 0 || f.Frac > 1 {
				return fmt.Errorf("chaos: partition fault %d frac %v outside [0,1]", i, f.Frac)
			}
			if f.Count == 0 && f.Frac == 0 {
				f.Count = 1
			}
		case KindRestart:
			if f.Count == 0 {
				f.Count = 1
			}
			if f.RecoverySec < 0 {
				return fmt.Errorf("chaos: restart fault %d recovery %v < 0", i, f.RecoverySec)
			}
		default:
			return fmt.Errorf("chaos: fault %d has unknown kind %d", i, f.Kind)
		}
		if f.Count < 0 {
			return fmt.Errorf("chaos: fault %d count %d < 0", i, f.Count)
		}
	}
	return nil
}

// finite reports whether every value is a real number. NaN passes every
// < and > range check, and ±Inf is no time, factor or fraction.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Victims resolves a partition fault's set size against a fleet size.
func (f *Fault) Victims(fleet int) int {
	n := f.Count
	if f.Kind == KindPartition && f.Frac > 0 {
		n = int(math.Ceil(f.Frac * float64(fleet)))
	}
	if n > fleet {
		n = fleet
	}
	return n
}

// Parse decodes the xctl -chaos-plan DSL: semicolon-separated entries
// of the form "kind@at[+dur][,key=val...]", plus a "probes[,...]"
// pseudo-entry arming the health sweep. Examples:
//
//	crash@0.25,count=3
//	gray@0.3+0.2,cost=4,err=0.05,version=2
//	partition@0.4+0.1,frac=0.5
//	restart@0.5,count=2,recovery=0.02
//	probes,interval=0.005,timeout-us=800,unhealthy=3,healthy=2
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ",")
		head, opts := fields[0], fields[1:]
		if head == "probes" {
			pr := &Probes{}
			for _, o := range opts {
				k, v, err := splitOpt(o)
				if err != nil {
					return nil, err
				}
				switch k {
				case "interval":
					pr.IntervalSec, err = parseFloat(k, v)
				case "timeout-us":
					pr.TimeoutUS, err = parseFloat(k, v)
				case "unhealthy":
					pr.UnhealthyAfter, err = parseInt(k, v)
				case "healthy":
					pr.HealthyAfter, err = parseInt(k, v)
				default:
					err = fmt.Errorf("chaos: unknown probes option %q", k)
				}
				if err != nil {
					return nil, err
				}
			}
			p.Probes = pr
			continue
		}
		name, when, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: entry %q: want kind@at[+dur]", entry)
		}
		var f Fault
		switch name {
		case "crash":
			f.Kind = KindCrash
		case "gray":
			f.Kind = KindGray
		case "partition":
			f.Kind = KindPartition
		case "restart":
			f.Kind = KindRestart
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q", name)
		}
		at, dur, hasDur := strings.Cut(when, "+")
		var err error
		if f.AtSec, err = parseFloat("at", at); err != nil {
			return nil, err
		}
		if hasDur {
			if f.DurationSec, err = parseFloat("dur", dur); err != nil {
				return nil, err
			}
		}
		for _, o := range opts {
			k, v, err := splitOpt(o)
			if err != nil {
				return nil, err
			}
			switch k {
			case "count":
				f.Count, err = parseInt(k, v)
			case "frac":
				f.Frac, err = parseFloat(k, v)
			case "cost":
				f.CostFactor, err = parseFloat(k, v)
			case "err":
				f.ErrorRate, err = parseFloat(k, v)
			case "recovery":
				f.RecoverySec, err = parseFloat(k, v)
			case "version":
				f.Version, err = parseInt(k, v)
			default:
				err = fmt.Errorf("chaos: unknown %s option %q", name, k)
			}
			if err != nil {
				return nil, err
			}
		}
		p.Faults = append(p.Faults, f)
	}
	if p.Probes == nil && len(p.Faults) == 0 {
		return nil, fmt.Errorf("chaos: empty plan %q", s)
	}
	// Keep the timeline in injection order so the canonical replay
	// order (time, then plan index) matches what the user wrote.
	sort.SliceStable(p.Faults, func(i, j int) bool {
		return p.Faults[i].AtSec < p.Faults[j].AtSec
	})
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	return p, nil
}

func splitOpt(o string) (key, val string, err error) {
	k, v, ok := strings.Cut(strings.TrimSpace(o), "=")
	if !ok || k == "" || v == "" {
		return "", "", fmt.Errorf("chaos: option %q: want key=val", o)
	}
	return k, v, nil
}

func parseFloat(key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("chaos: option %s=%q: %v", key, v, err)
	}
	return f, nil
}

func parseInt(key, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("chaos: option %s=%q: %v", key, v, err)
	}
	return n, nil
}
