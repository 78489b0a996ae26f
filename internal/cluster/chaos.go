package cluster

import (
	"fmt"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// chaosExec lowers a chaos.Plan onto the cluster's engines: fault
// events fire at their exact virtual instants (single engine) or at
// the barrier of the epoch containing them (sharded engine — the same
// quantization every control action gets), and the optional health
// sweep runs the failure detector that ejects and readmits replicas.
//
// Determinism contract: victim draws come from the dedicated chaos
// stream (seed ^ 0xc7a05eed), probe coins from the probe stream
// (seed ^ 0x980be5eed), and gray completion coins from per-replica
// streams keyed by replica id — never from the arrival or routing
// streams. Event firing order is (time, plan index, start-before-end),
// and probe sweeps walk replicas in id order, so a plan's effect is
// byte-identical for any Shards >= 1 × any ShardWorkers.
//
// The legacy Config.FailNodeAtSec knob is itself lowered to a
// one-event crash plan that takes the ordinary crash path; its victim
// stream is the original failure stream (seed ^ 0xfa17ed0de), drawn at
// the original schedule position, so pre-chaos reports stay
// byte-identical (see TestLegacyFailNodePinned).

// ChaosResult is the Result's fault-injection section: what the plan
// did and what the health machinery detected.
type ChaosResult struct {
	Faults      int // fault events injected (window starts)
	Crashes     int // nodes crashed
	GrayWindows int // gray windows opened
	Partitions  int // replicas partitioned (summed over windows)
	Restarts    int // replicas crash-restarted

	ProbesSent    uint64
	ProbeFailures uint64
	Ejections     int // detector removals from the routing table
	Readmissions  int // detector returns to the routing table
}

// chaosEvent is one timeline entry: a fault's start, or a windowed
// fault's end.
type chaosEvent struct {
	at  cycles.Cycles
	end bool
	fi  int // index into plan.Faults
}

type chaosExec struct {
	c      *Cluster
	plan   *chaos.Plan
	legacy bool // lowered FailNodeAtSec: no report section

	rng      *sim.Rand // victim stream
	probeRng *sim.Rand // probe-coin stream
	seed     uint64    // traffic seed: derives per-replica gray coin streams

	events []chaosEvent
	nextEv int

	victims [][]*container // per fault: replicas a window was applied to
	active  []bool         // per fault: window currently open

	det          *chaos.Detector
	probeIvl     cycles.Cycles
	probeTimeout cycles.Cycles
	probeDue     cycles.Cycles // next sweep instant (sharded barrier clock)

	res ChaosResult
}

// armChaos builds the executor from the config, or leaves it nil when
// neither a plan nor the legacy knob is set (and for an inert plan, so
// an empty Plan{} is exactly cost-free).
func (c *Cluster) armChaos(seed uint64) error {
	if c.cfg.Chaos != nil && c.cfg.FailNodeAtSec > 0 {
		return fmt.Errorf("cluster: FailNodeAtSec and Chaos are exclusive — use a crash fault in the plan")
	}
	plan := c.cfg.Chaos
	if plan != nil {
		if err := plan.Normalize(); err != nil {
			return err
		}
		if len(plan.Faults) == 0 && plan.Probes == nil {
			plan = nil
		}
	}
	x := &chaosExec{c: c, seed: seed}
	switch {
	case plan != nil:
		x.plan = plan
		x.rng = sim.NewRand(seed ^ 0xc7a05eed)
	case c.cfg.FailNodeAtSec > 0:
		x.legacy = true
		x.rng = sim.NewRand(seed ^ 0xfa17ed0de) // the pre-chaos failure stream
		x.plan = &chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindCrash, AtSec: c.cfg.FailNodeAtSec, Count: 1}}}
	default:
		return nil
	}
	for fi := range x.plan.Faults {
		f := &x.plan.Faults[fi]
		at := cycles.FromSeconds(f.AtSec)
		x.events = append(x.events, chaosEvent{at: at, fi: fi})
		if f.DurationSec > 0 && (f.Kind == chaos.KindGray || f.Kind == chaos.KindPartition) {
			x.events = append(x.events, chaosEvent{at: at + cycles.FromSeconds(f.DurationSec), end: true, fi: fi})
		}
	}
	// Canonical firing order: time, then plan index, starts before ends.
	// Faults are already in AtSec order (Parse sorts; Go-built plans
	// follow suit), so a stable sort on time alone preserves it.
	for i := 1; i < len(x.events); i++ {
		for j := i; j > 0 && chaosEventLess(&x.events[j], &x.events[j-1]); j-- {
			x.events[j], x.events[j-1] = x.events[j-1], x.events[j]
		}
	}
	x.victims = make([][]*container, len(x.plan.Faults))
	x.active = make([]bool, len(x.plan.Faults))
	if pr := x.plan.Probes; pr != nil {
		x.probeIvl = cycles.FromSeconds(pr.IntervalSec)
		if x.probeIvl == 0 {
			x.probeIvl = 1
		}
		x.probeDue = x.probeIvl
		x.probeTimeout = cycles.FromMicros(pr.TimeoutUS)
		x.probeRng = sim.NewRand(seed ^ 0x980be5eed)
		x.det = chaos.NewDetector(pr.UnhealthyAfter, pr.HealthyAfter)
	}
	c.chaos = x
	return nil
}

func chaosEventLess(a, b *chaosEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.fi != b.fi {
		return a.fi < b.fi
	}
	return !a.end && b.end
}

// armSingle schedules the timeline on the single engine. The legacy
// plan degenerates to exactly the old single crash event — same
// instant, same schedule position — so reports pin byte-identical.
func (x *chaosExec) armSingle() {
	c := x.c
	for i := range x.events {
		ev := &x.events[i]
		if ev.at > c.horizon {
			continue
		}
		e := ev
		c.eng.At(ev.at, func() { x.fire(e) })
	}
	if x.probeIvl > 0 && x.probeIvl <= c.horizon {
		c.eng.At(x.probeIvl, x.probeTick)
	}
}

// probeTick is the single-engine sweep heartbeat.
func (x *chaosExec) probeTick() {
	now := x.c.eng.Now()
	x.probeSweep(now)
	if next := now + x.probeIvl; next <= x.c.horizon {
		x.c.eng.At(next, x.probeTick)
	}
}

// nextDue reports the earliest pending chaos instant after now — the
// sharded step()'s extra barrier cap (0 = none pending).
func (x *chaosExec) nextDue() cycles.Cycles {
	var d cycles.Cycles
	if x.nextEv < len(x.events) {
		d = x.events[x.nextEv].at
	}
	if x.probeIvl > 0 && (d == 0 || x.probeDue < d) {
		d = x.probeDue
	}
	return d
}

// dueAt reports whether atBarrier(now) has anything to fire.
func (x *chaosExec) dueAt(now cycles.Cycles) bool {
	return (x.nextEv < len(x.events) && x.events[x.nextEv].at <= now) ||
		(x.probeIvl > 0 && x.probeDue <= now)
}

// atBarrier fires everything due at a sharded barrier, in canonical
// order: timeline events, then the probe sweep. It reports whether
// routing membership may have changed (the barrier re-snapshots the
// table then).
func (x *chaosExec) atBarrier(now cycles.Cycles) bool {
	mutated := false
	for x.nextEv < len(x.events) && x.events[x.nextEv].at <= now {
		ev := &x.events[x.nextEv]
		x.nextEv++
		if x.fire(ev) {
			mutated = true
		}
	}
	if x.probeIvl > 0 {
		for x.probeDue <= now {
			if x.probeSweep(now) {
				mutated = true
			}
			x.probeDue += x.probeIvl
		}
	}
	return mutated
}

// fire applies one timeline event; returns whether routing membership
// or queue depths changed.
func (x *chaosExec) fire(ev *chaosEvent) bool {
	c := x.c
	now := c.timeNow()
	f := &x.plan.Faults[ev.fi]
	if ev.end {
		return x.endWindow(ev.fi, f)
	}
	switch f.Kind {
	case chaos.KindCrash:
		x.res.Faults++
		for i := 0; i < f.Count; i++ {
			if c.failOneNode(x.rng) {
				x.res.Crashes++
			}
		}
		return true
	case chaos.KindGray:
		x.res.Faults++
		x.res.GrayWindows++
		x.active[ev.fi] = true
		if f.Version > 0 {
			for _, ct := range c.containers {
				if !ct.gone && ct.version == f.Version {
					x.applyGray(ct, ev.fi)
				}
			}
		} else {
			for _, ct := range x.pickReplicas(f.Count, func(ct *container) bool {
				return !ct.gone && ct.gray == 0
			}) {
				x.applyGray(ct, ev.fi)
			}
		}
		c.event(now, "chaos-gray", fmt.Sprintf("%d replicas at cost ×%g err %g for %gs",
			len(x.victims[ev.fi]), f.CostFactor, f.ErrorRate, f.DurationSec))
		return false
	case chaos.KindPartition:
		x.res.Faults++
		x.active[ev.fi] = true
		fleet := 0
		for _, ct := range c.containers {
			if !ct.gone {
				fleet++
			}
		}
		vs := x.pickReplicas(f.Victims(fleet), func(ct *container) bool {
			return !ct.gone && !ct.partitioned
		})
		for _, ct := range vs {
			ct.partitioned = true
			x.res.Partitions++
			if c.graph != nil && ct.backend >= 0 {
				c.fleetSvc.SetUnreachable(ct.backend, true)
			}
		}
		x.victims[ev.fi] = vs
		c.event(now, "chaos-partition", fmt.Sprintf("%d replicas unreachable for %gs", len(vs), f.DurationSec))
		return true
	case chaos.KindRestart:
		x.res.Faults++
		down := c.arch.migrationDowntime(true) + cycles.FromSeconds(f.RecoverySec)
		vs := x.pickReplicas(f.Count, func(ct *container) bool {
			return !ct.gone && !ct.q.Suspended()
		})
		for _, ct := range vs {
			x.res.Restarts++
			ct.q.Suspend()
			c.dropBacklog(ct)
			ct.freezeGen++
			c.resumeAfter(ct, down)
		}
		c.event(now, "chaos-restart", fmt.Sprintf("%d replicas dark for %.0fus", len(vs), down.Micros()))
		return true
	}
	return false
}

// endWindow closes a gray or partition window over the replicas it was
// applied to (replicas retired mid-window are skipped).
func (x *chaosExec) endWindow(fi int, f *chaos.Fault) bool {
	c := x.c
	x.active[fi] = false
	mutated := false
	for _, ct := range x.victims[fi] {
		switch f.Kind {
		case chaos.KindGray:
			if ct.gray == fi+1 {
				x.clearGray(ct)
			}
		case chaos.KindPartition:
			if ct.partitioned {
				ct.partitioned = false
				if c.graph != nil && ct.backend >= 0 && !ct.gone {
					c.fleetSvc.SetUnreachable(ct.backend, false)
				}
				mutated = true
			}
		}
	}
	x.victims[fi] = nil
	c.event(c.timeNow(), "chaos-heal", fmt.Sprintf("%s window closed", f.Kind))
	return mutated
}

// applyGray turns a replica gray under fault fi: scaled cost plus an
// error coin, mirrored into the single-engine ingress backend when one
// fronts the fleet. First window wins on overlap.
func (x *chaosExec) applyGray(ct *container, fi int) {
	if ct.gray != 0 {
		return
	}
	f := &x.plan.Faults[fi]
	ct.gray = fi + 1
	ct.costScale = f.CostFactor
	ct.errRate = f.ErrorRate
	if ct.errRate > 0 && ct.errRng == nil {
		ct.errRng = sim.NewRand(x.coinSeed(ct.id))
	}
	c := x.c
	if c.graph != nil && ct.backend >= 0 {
		c.fleetSvc.SetCost(ct.backend, c.costOf(ct))
		c.fleetSvc.SetErrorRate(ct.backend, f.ErrorRate, x.coinSeed(ct.id))
	}
	x.victims[fi] = append(x.victims[fi], ct)
}

// clearGray restores a replica's healthy cost and error rate.
func (x *chaosExec) clearGray(ct *container) {
	ct.gray = 0
	ct.costScale = 0
	ct.errRate = 0
	c := x.c
	if c.graph != nil && ct.backend >= 0 {
		c.fleetSvc.SetCost(ct.backend, c.per)
		c.fleetSvc.SetErrorRate(ct.backend, 0, 0)
	}
}

// onVersionChange re-evaluates version-targeted gray windows for a
// replica the deployment controller just moved — the poisoned-canary
// lever: a gray fault with Version set latches onto replicas as they
// upgrade and lets go when they roll back.
func (x *chaosExec) onVersionChange(ct *container) {
	for fi, on := range x.active {
		if !on {
			continue
		}
		f := &x.plan.Faults[fi]
		if f.Kind != chaos.KindGray || f.Version == 0 {
			continue
		}
		if ct.version == f.Version {
			x.applyGray(ct, fi)
		} else if ct.gray == fi+1 {
			x.clearGray(ct)
		}
	}
}

// coinSeed derives replica ct's private gray-coin stream.
func (x *chaosExec) coinSeed(id int) uint64 {
	return x.seed ^ 0x62a95eed ^ uint64(id)*0x9e3779b97f4a7c15
}

// pickReplicas draws n distinct eligible replicas from the chaos
// stream, in draw order — the correlated-failure victim set.
func (x *chaosExec) pickReplicas(n int, eligible func(*container) bool) []*container {
	var cand []*container
	for _, ct := range x.c.containers {
		if eligible(ct) {
			cand = append(cand, ct)
		}
	}
	if n > len(cand) {
		n = len(cand)
	}
	out := make([]*container, 0, n)
	for i := 0; i < n; i++ {
		j := int(x.rng.Uint64() % uint64(len(cand)))
		out = append(out, cand[j])
		cand[j] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
	}
	return out
}

// probeSweep runs one health sweep: every live replica is probed in id
// order and the detector decides membership. Steady state (no
// transitions, no fleet growth) allocates nothing.
func (x *chaosExec) probeSweep(now cycles.Cycles) bool {
	c := x.c
	x.det.Grow(len(c.containers))
	changed := false
	for i, ct := range c.containers {
		if ct.gone {
			x.det.Forget(i)
			continue
		}
		x.res.ProbesSent++
		ok := !ct.partitioned && !ct.node.failed && !ct.q.Suspended()
		if ok && x.probeTimeout > 0 {
			if est := c.per * cycles.Cycles(ct.q.Depth()) / cycles.Cycles(c.servers); est > x.probeTimeout {
				ok = false
			}
		}
		if ok && ct.errRate > 0 && x.probeRng.Float64() < ct.errRate {
			ok = false
		}
		if !ok {
			x.res.ProbeFailures++
		}
		switch x.det.Observe(i, ok) {
		case chaos.Eject:
			ct.ejected = true
			x.res.Ejections++
			c.noteUnroutable(ct)
			c.event(now, "chaos-eject", fmt.Sprintf("%s failed %d consecutive probes", ct.name, x.plan.Probes.UnhealthyAfter))
			changed = true
		case chaos.Readmit:
			ct.ejected = false
			x.res.Readmissions++
			if c.graph != nil && ct.backend >= 0 && !ct.draining && !ct.gone {
				c.fleetSvc.SetDown(ct.backend, false)
			}
			c.event(now, "chaos-readmit", fmt.Sprintf("%s healthy for %d probes", ct.name, x.plan.Probes.HealthyAfter))
			changed = true
		}
	}
	return changed
}

// costOf is a replica's current per-request demand: the archetype cost
// scaled by any gray window it sits in.
func (c *Cluster) costOf(ct *container) cycles.Cycles {
	if ct.costScale > 1 {
		return cycles.Cycles(float64(c.per) * ct.costScale)
	}
	return c.per
}
