package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// The deployment controller rolls the fleet from version 1 to version
// 2 under live traffic, one control window at a time, with an SLO
// guard watching the windowed p99 and error rate. Upgrading a replica
// is a cold restart: its queue freezes for the boot blackout and
// thaws with its backlog intact — the capacity dip the guard exists to
// bound. Rollback restores version 1 the same way.
//
// Everything runs at control-window granularity inside controlStep, so
// the rollout is deterministic on both engines and byte-identical for
// any Shards × workers split. Upgrade order is replica-id order — no
// randomness, so a rollout perturbs no seeded stream.

// Deploy strategies.
const (
	// StrategyRolling upgrades BatchSize replicas per control window,
	// guard active throughout.
	StrategyRolling = "rolling"
	// StrategyCanary upgrades a CanaryFrac cohort first, bakes it for
	// BakeWindows control windows under the guard, then proceeds as a
	// rolling upgrade of the remainder.
	StrategyCanary = "canary"
	// StrategyBlueGreen switches the whole fleet in one window, then
	// bakes; the guard can still roll the switch back.
	StrategyBlueGreen = "bluegreen"
)

// DeployConfig describes one guarded rollout.
type DeployConfig struct {
	// Strategy is rolling, canary, or bluegreen.
	Strategy string
	// StartSec is the virtual time the rollout begins.
	StartSec float64
	// BatchSize is replicas upgraded per control window while rolling
	// (default: 5% of the fleet, at least 1).
	BatchSize int
	// CanaryFrac sizes the canary cohort (default 0.05).
	CanaryFrac float64
	// BakeWindows is how many control windows a canary or blue-green
	// switch bakes before promotion (default 3).
	BakeWindows int

	// MaxP99US is the guard's window-p99 ceiling (default: the
	// cluster's SLOp99US; 0 with no SLO disables the latency arm).
	MaxP99US float64
	// MaxErrorRate is the guard's window error-fraction ceiling
	// (default 0.05; a value >= 1 disables the arm).
	MaxErrorRate float64
	// RollbackAfter is consecutive breaching windows before rollback
	// (default 2).
	RollbackAfter int
}

func (d *DeployConfig) normalize(slo float64) error {
	switch d.Strategy {
	case StrategyRolling, StrategyCanary, StrategyBlueGreen:
	default:
		return fmt.Errorf("cluster: unknown deploy strategy %q (known: rolling|canary|bluegreen)", d.Strategy)
	}
	// NaN passes every range check below, and ±Inf is no time or rate.
	for _, v := range [...]float64{d.StartSec, d.CanaryFrac, d.MaxP99US, d.MaxErrorRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: deploy config has a non-finite value: %+v", *d)
		}
	}
	if d.StartSec < 0 {
		return fmt.Errorf("cluster: deploy start %v < 0", d.StartSec)
	}
	if d.CanaryFrac == 0 {
		d.CanaryFrac = 0.05
	}
	if d.CanaryFrac < 0 || d.CanaryFrac > 1 {
		return fmt.Errorf("cluster: deploy canary fraction %v outside (0,1]", d.CanaryFrac)
	}
	if d.BakeWindows <= 0 {
		d.BakeWindows = 3
	}
	if d.MaxP99US == 0 {
		d.MaxP99US = slo
	}
	if d.MaxErrorRate == 0 {
		d.MaxErrorRate = 0.05
	}
	if d.RollbackAfter <= 0 {
		d.RollbackAfter = 2
	}
	return nil
}

// ParseDeploy decodes the xctl -deploy DSL:
// "strategy@start[,batch=N][,frac=F][,bake=N][,p99us=X][,err=X][,after=N]",
// e.g. "canary@0.05,frac=0.1,bake=2,err=0.02".
func ParseDeploy(s string) (*DeployConfig, error) {
	fields := strings.Split(strings.TrimSpace(s), ",")
	head := fields[0]
	d := &DeployConfig{}
	var err error
	if name, at, ok := strings.Cut(head, "@"); ok {
		d.Strategy = name
		if d.StartSec, err = parseDeployFloat("start", at); err != nil {
			return nil, err
		}
	} else {
		d.Strategy = head
	}
	for _, o := range fields[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(o), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("cluster: deploy option %q: want key=val", o)
		}
		switch k {
		case "batch":
			d.BatchSize, err = parseDeployInt(k, v)
		case "frac":
			d.CanaryFrac, err = parseDeployFloat(k, v)
		case "bake":
			d.BakeWindows, err = parseDeployInt(k, v)
		case "p99us":
			d.MaxP99US, err = parseDeployFloat(k, v)
		case "err":
			d.MaxErrorRate, err = parseDeployFloat(k, v)
		case "after":
			d.RollbackAfter, err = parseDeployInt(k, v)
		default:
			err = fmt.Errorf("cluster: unknown deploy option %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func parseDeployFloat(key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: deploy option %s=%q: %v", key, v, err)
	}
	return f, nil
}

func parseDeployInt(key, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("cluster: deploy option %s=%q: %v", key, v, err)
	}
	return n, nil
}

// DeployResult is the Result's rollout section.
type DeployResult struct {
	Strategy    string
	StartedSec  float64
	FinishedSec float64 // promotion or rollback instant (0 = in progress)
	Upgraded    int     // replicas moved to the new version
	RolledBack  int     // replicas the guard downgraded
	// Outcome is promoted, rolled-back, or in-progress (horizon hit
	// mid-rollout).
	Outcome       string
	GuardBreaches int // control windows the guard flagged
}

// Rollout phases.
const (
	depIdle = iota
	depBaking
	depRolling
	depDone
)

type deployExec struct {
	c     *Cluster
	cfg   DeployConfig
	start cycles.Cycles
	guard obs.SLOGuard

	phase    int
	baked    int
	upgraded []*container

	// window baselines for the error-rate signal
	lastDropped uint64
	lastErred   uint64

	res DeployResult
}

// armDeploy validates the config and builds the controller.
func (c *Cluster) armDeploy() error {
	d := c.cfg.Deploy
	if d == nil {
		return nil
	}
	if err := d.normalize(c.cfg.SLOp99US); err != nil {
		return err
	}
	c.dep = &deployExec{
		c:     c,
		cfg:   *d,
		start: cycles.FromSeconds(d.StartSec),
		guard: obs.SLOGuard{MaxP99US: d.MaxP99US, MaxErrorRate: d.MaxErrorRate, Consecutive: d.RollbackAfter},
		res:   DeployResult{Strategy: d.Strategy, Outcome: "in-progress"},
	}
	return nil
}

// deployStep runs once per control window, after the window's p99 is
// known and before the window resets. p99us is that window's p99.
func (c *Cluster) deployStep(now cycles.Cycles, p99us float64) {
	d := c.dep
	if d.phase == depDone {
		return
	}
	if now < d.start || (d.phase == depIdle && now == 0) {
		d.markWindow()
		return
	}
	if d.phase == depIdle {
		d.begin(now)
		d.markWindow()
		return
	}
	// Judge the window that just closed.
	errs := (c.dropped + c.erred) - (d.lastDropped + d.lastErred)
	total := c.win.Count() + errs
	rate := 0.0
	if total > 0 {
		rate = float64(errs) / float64(total)
	}
	breach, trip := d.guard.Observe(p99us, rate)
	if breach {
		d.res.GuardBreaches++
	}
	if trip {
		d.rollback(now, p99us, rate)
		d.markWindow()
		return
	}
	d.advance(now)
	d.markWindow()
}

func (d *deployExec) markWindow() {
	d.lastDropped = d.c.dropped
	d.lastErred = d.c.erred
}

// begin upgrades the first cohort.
func (d *deployExec) begin(now cycles.Cycles) {
	d.res.StartedSec = now.Seconds()
	switch d.cfg.Strategy {
	case StrategyCanary:
		n := int(math.Ceil(d.cfg.CanaryFrac * float64(d.fleetSize())))
		d.upgradeBatch(now, max(n, 1))
		d.phase = depBaking
	case StrategyBlueGreen:
		d.upgradeBatch(now, d.fleetSize())
		d.phase = depBaking
	default: // rolling
		d.phase = depRolling
		d.advance(now)
	}
}

// advance moves the rollout one window: bake countdown, then batches.
func (d *deployExec) advance(now cycles.Cycles) {
	switch d.phase {
	case depBaking:
		if d.cohortDark() {
			// The cohort is still inside its boot blackout — it has
			// served nothing the guard could judge. Bake windows count
			// only once the new version is live (the guard itself stays
			// armed throughout: a blackout-induced SLO breach is a real
			// breach).
			return
		}
		d.baked++
		if d.baked < d.cfg.BakeWindows {
			return
		}
		if d.cfg.Strategy == StrategyBlueGreen {
			d.finish(now, "promoted")
			return
		}
		d.phase = depRolling
		d.c.event(now, "deploy-promote", fmt.Sprintf("canary healthy after %d windows", d.baked))
		fallthrough
	case depRolling:
		batch := d.cfg.BatchSize
		if batch <= 0 {
			batch = max(1, d.fleetSize()/20)
		}
		if d.upgradeBatch(now, batch) == 0 {
			d.finish(now, "promoted")
		}
	}
}

// cohortDark reports whether any upgraded replica is still frozen in
// its restart blackout.
func (d *deployExec) cohortDark() bool {
	for _, ct := range d.upgraded {
		if !ct.gone && ct.q.Suspended() {
			return true
		}
	}
	return false
}

// fleetSize counts replicas eligible for upgrade accounting.
func (d *deployExec) fleetSize() int {
	n := 0
	for _, ct := range d.c.containers {
		if !ct.gone {
			n++
		}
	}
	return n
}

// upgradeBatch moves up to n version-1 replicas to version 2, in
// replica-id order, each through a cold-restart blackout with its
// backlog kept. Returns how many it upgraded.
func (d *deployExec) upgradeBatch(now cycles.Cycles, n int) int {
	c := d.c
	done := 0
	for _, ct := range c.containers {
		if done >= n {
			break
		}
		if ct.version != 1 || ct.gone || ct.draining || ct.node.failed {
			continue
		}
		d.setVersion(ct, 2)
		d.upgraded = append(d.upgraded, ct)
		d.res.Upgraded++
		done++
	}
	if done > 0 {
		c.event(now, "deploy-upgrade", fmt.Sprintf("%s: %d replicas -> v2 (%d/%d)",
			d.cfg.Strategy, done, d.res.Upgraded, d.fleetSize()))
	}
	return done
}

// setVersion restamps one replica: freeze, cold-boot blackout, thaw
// with the backlog intact. Chaos version-gray windows re-latch here.
func (d *deployExec) setVersion(ct *container, v int) {
	c := d.c
	ct.version = v
	ct.q.Suspend()
	ct.freezeGen++
	c.resumeAfter(ct, c.arch.migrationDowntime(true))
	if c.chaos != nil {
		c.chaos.onVersionChange(ct)
	}
}

// rollback downgrades every upgraded replica and ends the rollout.
func (d *deployExec) rollback(now cycles.Cycles, p99us, rate float64) {
	for _, ct := range d.upgraded {
		if ct.gone || ct.version != 2 {
			continue
		}
		d.setVersion(ct, 1)
		d.res.RolledBack++
	}
	d.c.event(now, "deploy-rollback", fmt.Sprintf("guard tripped (p99 %.0fus, err %.3f): %d replicas -> v1",
		p99us, rate, d.res.RolledBack))
	d.finish(now, "rolled-back")
}

func (d *deployExec) finish(now cycles.Cycles, outcome string) {
	d.phase = depDone
	d.res.Outcome = outcome
	d.res.FinishedSec = now.Seconds()
	if outcome == "promoted" {
		d.c.event(now, "deploy-done", fmt.Sprintf("%s rollout promoted: %d replicas on v2",
			d.cfg.Strategy, d.res.Upgraded))
	}
}
