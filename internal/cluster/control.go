package cluster

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
)

// tick is the single-engine control loop: one virtual-time heartbeat
// that reschedules itself until the horizon. The sharded engine runs
// the same controlStep at epoch barriers instead (see shard.go).
func (c *Cluster) tick() {
	now := c.eng.Now()
	c.controlStep(now)
	// Reschedule at the next interval, clamped to the horizon so the
	// final partial window is still evaluated; at the horizon, stop.
	next := min(now+c.interval, c.horizon)
	if next > now {
		c.eng.At(next, c.tick)
	}
}

// controlStep reads the window's utilization and p99, decides scale
// actions, checks node balance, and opens the next window.
func (c *Cluster) controlStep(now cycles.Cycles) {
	window := now - c.lastOff
	if window > 0 {
		util := c.windowUtil(window)
		p99 := c.win.Quantile(0.99).Micros()
		breach := c.cfg.SLOp99US > 0 && c.win.Count() > 0 && p99 > c.cfg.SLOp99US
		if breach {
			c.res.SLOBreaches++
		}
		if c.cfg.Autoscale {
			switch {
			case breach:
				c.scaleUp(now, fmt.Sprintf("p99 %.0fus over SLO %.0fus", p99, c.cfg.SLOp99US))
			case util > scaleUpUtil:
				c.scaleUp(now, fmt.Sprintf("utilization %.0f%%", 100*util))
			case util < scaleDownUtil && !c.backlogged():
				c.scaleDown(now)
			}
		}
		c.rebalance(now, window)
		if c.dep != nil {
			c.deployStep(now, p99)
		}
	}
	c.notePeaks()

	c.win.Reset()
	c.winBusy = 0
	for _, n := range c.nodes {
		n.winBusy = 0
	}
	c.lastOff = now
}

// windowUtil is the busy fraction of the routable containers' server
// capacity over the window — the autoscaler's utilization signal.
func (c *Cluster) windowUtil(window cycles.Cycles) float64 {
	servers := c.routableCount() * c.servers
	if servers == 0 {
		return 0
	}
	return min(float64(c.winBusy)/(float64(servers)*float64(window)), 1)
}

// backlogged reports whether the fleet holds more than one job per
// routable server. It guards scale-down: a window with zero
// completions (every container mid-blackout after a failover burst)
// measures zero utilization, and without this check a jammed fleet
// would read as an idle one and shrink under peak pressure.
func (c *Cluster) backlogged() bool {
	depth, servers := 0, 0
	for _, ct := range c.containers {
		if !c.routableCt(ct) {
			continue
		}
		depth += ct.q.Depth()
		servers += c.servers
	}
	return depth > servers
}

// scaleUp adds one replica, opening a fresh node first when no existing
// node has room and the ceiling allows it.
func (c *Cluster) scaleUp(now cycles.Cycles, why string) {
	n := c.pickNode()
	if n == nil {
		if c.place.live >= c.cfg.MaxNodes {
			if !c.saturationNoted {
				c.saturationNoted = true
				c.event(now, "at-capacity", fmt.Sprintf("%d nodes at MaxNodes, cannot scale (%s)", c.cfg.MaxNodes, why))
			}
			return
		}
		n = c.addNode()
		c.event(now, "add-node", fmt.Sprintf("node %d: %s", n.id, why))
	}
	ct := c.addContainer(n)
	c.event(now, "add-replica", fmt.Sprintf("%s on node %d: %s", ct.name, n.id, why))
}

// scaleDown drains one replica — the shallowest queue, newest first on
// ties — keeping at least one container routable.
func (c *Cluster) scaleDown(now cycles.Cycles) {
	if c.routableCount() <= 1 {
		return
	}
	var victim *container
	for _, ct := range c.containers {
		if !c.routableCt(ct) || ct.q.Suspended() {
			continue
		}
		if victim == nil || ct.q.Depth() < victim.q.Depth() ||
			(ct.q.Depth() == victim.q.Depth() && ct.id > victim.id) {
			victim = ct
		}
	}
	if victim == nil {
		return
	}
	victim.draining = true
	c.noteUnroutable(victim)
	c.event(now, "remove-replica", fmt.Sprintf("%s draining on node %d", victim.name, victim.node.id))
	if victim.q.Depth() == 0 {
		c.retire(victim)
	} else if c.sh != nil {
		c.sh.noteDraining(victim)
	}
}

// retire releases a fully drained container's reservation; an emptied
// surplus node is released with it. Idempotent: a container already
// gone (e.g. stranded by a node failure while draining) must not give
// back its reservation twice.
func (c *Cluster) retire(ct *container) {
	if ct.gone {
		return
	}
	ct.gone = true
	c.saturationNoted = false // freed capacity ends a saturation episode
	n := ct.node
	c.place.unhost(n, ct)
	if c.cfg.Autoscale && n.live == 0 && !n.failed && !n.removed && c.place.live > c.cfg.Nodes {
		n.removed = true
		c.place.leave(n)
		n.removedAt = c.timeNow()
		c.event(c.timeNow(), "remove-node", fmt.Sprintf("node %d drained", n.id))
	}
}

// rebalance migrates one container whenever per-core window
// utilizations diverge past the gap — including right after a scale-up
// booted an empty node. The donor is the hottest node that actually has
// a movable container to give (and more than one, so it stays in
// service); the receiver is the coldest node with room. Filtering
// during selection, not after, keeps one unusable extreme node from
// blocking an otherwise-viable pair.
func (c *Cluster) rebalance(now, window cycles.Cycles) {
	mov := c.movables()
	var hot, cold *node
	var hotU, coldU float64
	for _, n := range c.nodes {
		if n.failed || n.removed {
			continue
		}
		u := float64(n.winBusy) / (float64(n.cores) * float64(window))
		if n.live > 1 && mov[n.id-1] != nil && (hot == nil || u > hotU) {
			hot, hotU = n, u
		}
		if c.place.fits(n) && (cold == nil || u < coldU) {
			cold, coldU = n, u
		}
	}
	if hot == nil || cold == nil || hot == cold || hotU-coldU <= rebalanceGap {
		return
	}
	c.migrate(mov[hot.id-1], cold, "rebalance")
}

// movables returns each node's shallowest migratable container
// (cheapest blackout; its share of load re-routes to the migrated
// copy), or nil, indexed by node id - 1: one pass over the containers,
// where the first in container order wins ties.
func (c *Cluster) movables() []*container {
	if cap(c.movBuf) < len(c.nodes) {
		c.movBuf = make([]*container, len(c.nodes)*2)
	}
	mov := c.movBuf[:len(c.nodes)]
	clear(mov)
	for _, ct := range c.containers {
		if ct.gone || ct.draining || ct.q.Suspended() {
			continue
		}
		if m := mov[ct.node.id-1]; m == nil || ct.q.Depth() < m.q.Depth() {
			mov[ct.node.id-1] = ct
		}
	}
	return mov
}

// failOneNode kills one live node chosen from rng and reschedules its
// containers onto survivors (cold restarts — the dead node's state is
// gone, so the checkpoint path is unavailable). Crash faults pass the
// plan's victim stream; correlated failures draw repeatedly.
func (c *Cluster) failOneNode(rng *sim.Rand) bool {
	now := c.timeNow()
	var alive []*node
	for _, n := range c.nodes {
		if !n.failed && !n.removed {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return false
	}
	victim := alive[int(rng.Uint64()%uint64(len(alive)))]
	victim.failed = true
	victim.removedAt = now
	c.place.leave(victim) // before its containers are re-picked
	c.event(now, "node-failure", fmt.Sprintf("node %d down, %d containers to reschedule", victim.id, victim.live))
	for _, ct := range append([]*container(nil), c.containers...) {
		if ct.node != victim || ct.gone {
			continue
		}
		dst := c.pickNode()
		if dst == nil && c.cfg.Autoscale && c.place.live < c.cfg.MaxNodes {
			nn := c.addNode()
			c.event(now, "add-node", fmt.Sprintf("node %d: failover capacity", nn.id))
			dst = nn
		}
		if dst == nil {
			ct.gone = true
			ct.q.Suspend()
			ct.freezeGen++ // cancel any in-flight migration's Resume
			c.noteUnroutable(ct)
			c.dropBacklog(ct)
			c.place.unhost(victim, ct)
			c.event(now, "stranded", fmt.Sprintf("%s: no capacity to reschedule", ct.name))
			continue
		}
		c.migrate(ct, dst, "failover")
	}
	return true
}

// migrate moves a container to dst, charging the blackout window: the
// queue freezes, the replica travels (checkpoint/restore when the
// source is alive and the architecture supports it, cold restart
// otherwise), and dispatch resumes after the downtime. The blackout
// charge comes from the archetype's probe measurements — exact, because
// every replica of one cluster restores to the same clock.
func (c *Cluster) migrate(ct *container, dst *node, reason string) {
	src := ct.node
	now := c.timeNow()
	ct.q.Suspend()
	if reason == "failover" {
		// The source node crashed: its waiting backlog is gone, like the
		// checkpoint. Only in-service requests drain to completion.
		c.dropBacklog(ct)
	}
	cold := reason == "failover"
	if !cold && c.cfg.Platform.Kind == runtimes.XContainer && c.arch.liveErr != nil {
		// The archetype's checkpoint probe failed, so this live
		// migration fails the same deterministic way and restarts cold.
		c.event(now, "error", fmt.Sprintf("live migration of %s: %v; restarting cold", ct.name, c.arch.liveErr))
	}
	downtime := c.arch.migrationDowntime(cold)
	c.place.unhost(src, ct)
	c.place.host(dst, ct)
	src.migrOut++
	dst.migrIn++
	ct.node = dst
	ct.freezeGen++
	c.resumeAfter(ct, downtime)
	if c.ob != nil {
		c.obEvent(now, c.ob.kMigration, uint64(len(c.res.Migrations)))
	}
	c.res.Migrations = append(c.res.Migrations, Migration{
		AtSec:      now.Seconds(),
		Container:  ct.name,
		FromNode:   src.id,
		ToNode:     dst.id,
		DowntimeUS: downtime.Micros(),
		Reason:     reason,
	})
}

// resumeAfter schedules the post-blackout thaw of ct's queue on
// whichever engine owns it.
func (c *Cluster) resumeAfter(ct *container, downtime cycles.Cycles) {
	gen := ct.freezeGen
	thaw := func() {
		// A failover (or stranding) that interrupted this blackout
		// supersedes it; only the latest freeze may thaw the queue.
		if ct.freezeGen == gen && !ct.gone {
			ct.q.Resume()
		}
	}
	if c.sh != nil {
		c.sh.engines[ct.shard].At(c.sh.now+downtime, thaw)
		return
	}
	c.eng.After(downtime, thaw)
}

// dropBacklog empties a dead container's waiting queue. Behind the
// ingress, each lost job is an attempt of a live call: the routing tier
// decides — per route policy — whether it retries elsewhere or fails
// back to the client. On the plain front door, open-loop requests are
// lost with the node and counted as Dropped; closed-loop connections
// reconnect and re-send elsewhere, conserving the population — one
// batch at this instant on the sharded engine.
func (c *Cluster) dropBacklog(ct *container) {
	jobs := ct.q.TakeWaiting()
	if c.graph != nil {
		for _, j := range jobs {
			c.graph.AttemptLost(j)
		}
		return
	}
	if c.sh != nil && c.sh.fi != nil {
		for _, j := range jobs {
			c.sh.fi.core.Lost(j, c.sh.now)
		}
		return
	}
	if !c.closedLoop {
		c.dropped += uint64(len(jobs))
		if c.ob != nil {
			now := c.timeNow()
			for _, j := range jobs {
				c.ob.cen.Emit(now, c.ob.kDropped, j.ID, 0)
			}
		}
		return
	}
	if c.sh != nil {
		ids := make([]uint64, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID
		}
		c.sh.admitNow(ids)
		return
	}
	for _, j := range jobs {
		c.dispatch(j.ID)
	}
}

// notePeaks tracks the high-water marks the report exposes.
func (c *Cluster) notePeaks() {
	c.res.PeakNodes = max(c.res.PeakNodes, c.place.live)
	live := 0
	for _, ct := range c.containers {
		if !ct.gone {
			live++
		}
	}
	if live > c.res.PeakContainers {
		c.res.PeakContainers = live
	}
}

// event appends one scale-event record.
func (c *Cluster) event(at cycles.Cycles, action, detail string) {
	if c.ob != nil {
		key := c.ob.kScale
		if action == "node-failure" {
			key = c.ob.kFailure
		}
		// A carries the event-log index so simultaneous events stay
		// distinct records; the text itself becomes a time-series mark.
		c.obEvent(at, key, uint64(len(c.res.ScaleEvents)))
	}
	c.res.ScaleEvents = append(c.res.ScaleEvents, ScaleEvent{AtSec: at.Seconds(), Action: action, Detail: detail})
}
