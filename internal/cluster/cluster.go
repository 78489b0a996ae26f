// Package cluster is the multi-node orchestrator of the simulation: a
// fleet of nodes serving one application's traffic through per-replica
// queues on the discrete-event engine (internal/sim).
//
// The paper's §5.7 scale-out study stops at three backends behind one
// load balancer; this package models the layer a cloud operator grows
// next: a pluggable placement policy (bin-pack, spread, latency-aware),
// an autoscaler driven by utilization and p99-latency SLO signals, a
// rebalancer that live-migrates containers between nodes (charging the
// blackout window in virtual cycles), and seeded node-failure injection
// with rescheduling. Everything runs in virtual time: same Config and
// seed, byte-identical Result.
//
// Replicas are flyweights: one archetype core.Platform per cluster
// measures every cycle charge once (see archetype), so a container is a
// queue plus cost-table indices and a node is pure bookkeeping — no
// per-node platform, no per-replica booted instance. That is what lets
// fleets reach the ROADMAP's 10k-node scale.
//
// A run executes on either of two engines. The default (Shards == 0)
// is the original single sim.Engine with instantaneous routing and
// control. With Shards >= 1 the run is sharded: replicas are spread
// over per-shard engines that advance in parallel between epoch
// barriers, and every cross-replica decision — front-door routing,
// closed-loop re-issue, ingress attempts, autoscaling, failure
// injection — happens at barriers in one canonical order, so the
// Result is byte-identical for any shard or worker count (see shard.go).
package cluster

import (
	"fmt"
	"math"

	"xcontainers/internal/apps"
	"xcontainers/internal/chaos"
	"xcontainers/internal/core"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
	"xcontainers/internal/workload"
)

// Policy selects how new containers are placed onto nodes.
type Policy uint8

const (
	// BinPack fills the most-loaded node that still fits, minimizing
	// the number of nodes in use (consolidation).
	BinPack Policy = iota
	// Spread places on the least-loaded fitting node, maximizing
	// headroom per node (failure blast-radius control).
	Spread
	// LatencyAware places on the fitting node with the smallest
	// current request backlog per core — the signal closest to what a
	// latency SLO cares about.
	LatencyAware
)

func (p Policy) String() string {
	switch p {
	case BinPack:
		return "binpack"
	case Spread:
		return "spread"
	case LatencyAware:
		return "latency"
	}
	return fmt.Sprintf("policy-%d", uint8(p))
}

// ParsePolicy resolves a policy name ("binpack", "spread", "latency").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "binpack", "bin-pack", "pack":
		return BinPack, nil
	case "spread":
		return Spread, nil
	case "latency", "latency-aware":
		return LatencyAware, nil
	}
	return 0, fmt.Errorf("cluster: unknown placement policy %q (known: binpack|spread|latency)", s)
}

// Autoscaler thresholds and cadence. The control loop runs every
// defaultIntervalSec of virtual time; scale-up fires on an SLO breach
// or utilization above scaleUpUtil, scale-down on utilization below
// scaleDownUtil, and the rebalancer moves one container whenever
// per-core node utilizations diverge by more than rebalanceGap.
const (
	defaultIntervalSec = 0.05
	scaleUpUtil        = 0.85
	scaleDownUtil      = 0.20
	rebalanceGap       = 0.30
)

// maxDefaultEpochUS caps the adaptive default barrier period of a
// sharded run at 500 virtual µs. With EpochUS unset the epoch tracks
// the archetype: twice the per-request service cost, so a saturating
// closed loop's per-replica backlog (two jobs per server slot) spans
// the whole epoch and connections re-admitted at barriers never leave
// servers idle — while heavyweight apps still get a barrier every
// couple of requests, not thousands.
const maxDefaultEpochUS = 500

// Config describes one cluster experiment.
type Config struct {
	// Platform configures every node's host (kind, Meltdown patch,
	// cloud profile, cost table). MachineMB/MachineFrames are ignored:
	// node capacity is the cluster's to manage.
	Platform core.PlatformConfig

	// App is the served application model.
	App *apps.App
	// Workers is worker processes per container (0 = the app default).
	Workers int

	// Nodes is the initial node count (default 1). MaxNodes bounds
	// autoscaling node growth (0 = Nodes: replicas may still be added
	// on existing capacity, but no new nodes).
	Nodes    int
	MaxNodes int
	// NodeCores and NodeMemMB size each node (defaults 4 cores, 1024 MB).
	NodeCores int
	NodeMemMB int

	// Replicas is the initial container count (default = Nodes).
	Replicas int
	// ReplicaCores is physical cores reserved per container (default 1).
	ReplicaCores int

	// Policy places containers onto nodes.
	Policy Policy

	// SLOp99US, when > 0, arms the latency signal: a control window
	// whose p99 sojourn exceeds it counts as a breach and (with
	// Autoscale) triggers scale-up.
	SLOp99US float64
	// Autoscale enables the scale-up/scale-down control loop.
	// Rebalancing migrations run regardless.
	Autoscale bool

	// FailNodeAtSec, when > 0, kills one seeded-randomly chosen node at
	// that virtual time; its containers are rescheduled (cold restart on
	// surviving nodes, charged as migration downtime). Internally this
	// is lowered to a one-event chaos plan on the legacy failure
	// stream; it is exclusive with Chaos.
	FailNodeAtSec float64

	// Chaos, when non-nil, arms the declarative fault plan
	// (internal/chaos): typed fault events plus an optional health
	// sweep whose failure detector ejects and readmits replicas. All
	// randomness comes from dedicated seed-derived streams, so a plan
	// perturbs nothing but the faults it injects and results stay
	// byte-identical for any Shards × ShardWorkers.
	Chaos *chaos.Plan

	// Deploy, when non-nil, runs an SLO-guarded rollout (rolling,
	// canary, or blue-green) over the fleet at control-window
	// granularity, with automatic rollback (see DeployConfig).
	Deploy *DeployConfig

	// Ingress, when non-nil, fronts the fleet with the L7 ingress tier
	// (internal/ingress): requests enter through a proxy service whose
	// per-request and connection costs come from the node architecture's
	// cost table, and reach replicas under the route's load-balancing
	// and robustness policy — instead of the built-in JSQ front door.
	Ingress *IngressConfig

	// Shards, when >= 1, selects the epoch-sharded engine: replicas are
	// spread over Shards per-shard sim.Engines that run in parallel
	// between epoch barriers, with all cross-replica decisions applied
	// at barriers in canonical order. The Result is byte-identical for
	// any Shards >= 1 (and any ShardWorkers); it differs from the
	// Shards == 0 engine, whose routing and control are instantaneous
	// rather than epoch-quantized.
	Shards int
	// EpochUS is the sharded engine's barrier period in virtual
	// microseconds. 0 adapts it to the workload: twice the archetype's
	// per-request service cost, capped at 500 µs, which keeps default
	// closed loops saturated between barriers. It is a model
	// parameter: results depend on it, never on Shards or
	// ShardWorkers.
	EpochUS float64
	// ShardWorkers overrides the width of the pool driving shard
	// engines between barriers: at most n; epochs too small to repay a
	// handoff run inline (0 = par.NewFor's min(Shards, GOMAXPROCS);
	// 1 = every epoch inline). Results are identical for any value. It
	// is the one pool width GOMAXPROCS does not set, and no public API
	// or CLI sets it: the cluster tests force pooled epochs with it, and
	// xcperf times a one-worker pass beside the default pass in one
	// process.
	ShardWorkers int

	// layoutBlock, when > 0, overrides the replicas per block of the
	// shard layout (see shardRun.shardOf); 1 is round-robin. Only
	// tests set it, to show the layout is not a model knob.
	layoutBlock int
	// intervalSec, when > 0, overrides the control-loop period
	// (defaultIntervalSec). Only tests set it, to fit several control
	// windows into a short run.
	intervalSec float64

	// Observe, when non-nil, arms the observability layer: the Result
	// gains a windowed TimeSeries and a flight-recorder Trace, both
	// deterministic and — like every other Result field — byte-identical
	// for any Shards >= 1 × any ShardWorkers. Nil keeps the run on the
	// zero-allocation fast path.
	Observe *ObserveConfig
}

// IngressConfig configures the ingress tier in front of the fleet.
type IngressConfig struct {
	// Route is the ingress→fleet policy: load balancing, keep-alive,
	// timeout, retries, budget, hedging. A zero ConnSetup defaults to
	// the architecture's connection-accept cost.
	Route ingress.RoutePolicy
	// Cores is the proxy's CPU allocation (default 2).
	Cores int
}

// Traffic is the offered load: open loop (Rate or Burst) or a
// closed-loop population (0 = 2× fleet parallelism), over DurationSec
// (0 = 1 s) virtual seconds.
type Traffic = workload.Load

// node is one host in the fleet — pure capacity bookkeeping against the
// archetype's cost table; nothing is booted per node.
type node struct {
	id int

	cores     int
	memMB     int
	usedCores int
	usedMB    int

	live    int // containers currently assigned
	busy    cycles.Cycles
	winBusy cycles.Cycles

	addedAt   cycles.Cycles
	removedAt cycles.Cycles
	failed    bool
	removed   bool
	slot      int32 // placement set holding the node, -1 once failed or removed

	migrIn, migrOut int
}

// container is one placed replica: a flyweight handle — the queue its
// share of traffic flows through plus indices into the archetype's cost
// table. Migration moves the handle; the blackout charge comes from the
// archetype's probe measurements.
type container struct {
	id       int
	name     string
	node     *node
	q        *sim.Queue
	cores    int
	memMB    int
	shard    int32 // owning shard (sharded engine only)
	backend  int   // replica index in the ingress fleet service (-1 without ingress)
	draining bool  // scale-down: serving its backlog, no new routing
	gone     bool  // drained/stranded: no longer part of the fleet
	// freezeGen invalidates scheduled Resume callbacks: each new
	// blackout (or stranding) bumps it, so the Resume of an earlier,
	// superseded migration cannot prematurely unfreeze the queue.
	freezeGen int
	// epochBusy accumulates service demand started since the last fold
	// (sharded engine only): shard goroutines touch only their own
	// replicas, and barriers that run a chaos or control step fold the
	// sums into node accounting (shardRun.fold).
	epochBusy cycles.Cycles
	// mark is the route-table generation in which the replica's shard
	// last listed it as having completed a job (sharded engine only;
	// see fleetTable.noteDone).
	mark uint32

	// Chaos and rollout state. version is the deploy version the
	// replica runs (1 until a rollout moves it). gray is the active
	// gray-fault index + 1 (0 = healthy); costScale and errRate are
	// that window's degradation, with errRng the replica's private
	// coin stream. partitioned replicas are unreachable from the
	// routing tier; ejected replicas were removed by the health
	// detector.
	version     int
	gray        int
	costScale   float64
	errRate     float64
	errRng      *sim.Rand
	partitioned bool
	ejected     bool
}

// Cluster is one running fleet. Build with New, execute with Run.
type Cluster struct {
	cfg  Config
	arch *archetype // the one booted platform: every replica's cost table

	per     cycles.Cycles // CPU demand per request
	servers int           // queue servers per container
	memPer  int           // MB per container

	eng *sim.Engine // the single engine (nil when sharded)
	sh  *shardRun   // the epoch-sharded engine (nil when Shards == 0)

	// The ingress tier, when configured on the single engine: a proxy
	// service fronting one fleet service whose replicas are the
	// containers' queues. The sharded engine models the same tier as a
	// flyweight (see shard_ingress.go, reachable via sh.fi).
	graph    *ingress.Graph
	fleetSvc *ingress.Service

	nodes      []*node
	place      placement // live nodes by reserved replicas (placement.go)
	containers []*container
	nextNode   int
	nextCont   int
	rr         int // front-door JSQ rotating cursor

	horizon    cycles.Cycles
	interval   cycles.Cycles
	closedLoop bool
	ran        bool

	saturationNoted bool // "at-capacity" recorded once per saturation

	fleet   obs.Histogram // all completions
	win     obs.Histogram // completions since the last control tick
	winBusy cycles.Cycles
	lastOff cycles.Cycles // start of the current control window

	backlogBuf []int        // per-node backlog scratch for latency-aware picks
	movBuf     []*container // per-node shallowest movable container (rebalance)

	dispatched uint64
	completed  uint64
	dropped    uint64
	erred      uint64 // gray-failure errors on the plain front door

	// chaos executes the fault plan (nil = no plan and no legacy
	// FailNodeAtSec); dep drives the guarded rollout (nil = none).
	chaos *chaosExec
	dep   *deployExec

	// ob is the observability layer (nil = off; see observe.go). Every
	// emission site guards on the nil, so the disabled run pays one
	// branch per hook and allocates nothing.
	ob *clusterObs

	res Result
}

// New validates the configuration, measures the archetype cost table,
// sizes the initial nodes, and places the initial replicas.
func New(cfg Config) (*Cluster, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("cluster: config needs an application model")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.MaxNodes < cfg.Nodes {
		cfg.MaxNodes = cfg.Nodes
	}
	if cfg.NodeCores <= 0 {
		cfg.NodeCores = 4
	}
	if cfg.NodeMemMB <= 0 {
		cfg.NodeMemMB = 1024
	}
	if cfg.ReplicaCores <= 0 {
		cfg.ReplicaCores = 1
	}
	if cfg.ReplicaCores > cfg.NodeCores {
		return nil, fmt.Errorf("cluster: replica cores %d exceed node cores %d", cfg.ReplicaCores, cfg.NodeCores)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = cfg.Nodes
	}
	if cfg.intervalSec <= 0 {
		cfg.intervalSec = defaultIntervalSec
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: Shards must not be negative")
	}
	if cfg.Policy > LatencyAware {
		return nil, fmt.Errorf("cluster: unknown placement policy %d", cfg.Policy)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"EpochUS", cfg.EpochUS}, {"SLOp99US", cfg.SLOp99US}, {"FailNodeAtSec", cfg.FailNodeAtSec}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return nil, fmt.Errorf("cluster: %s %v must be finite and not negative", f.name, f.v)
		}
	}
	cfg.Platform.MachineMB = 0
	cfg.Platform.MachineFrames = 0

	c := &Cluster{cfg: cfg}
	ar, err := newArchetype(&cfg)
	if err != nil {
		return nil, err
	}
	c.arch = ar

	workers := cfg.Workers
	if workers <= 0 {
		workers = cfg.App.Processes
	}
	if workers <= 0 {
		workers = 1
	}
	c.per = workload.RequestCostN(ar.rt, cfg.App, workers)
	c.servers = min(workers*max(1, cfg.App.ThreadsPer), cfg.ReplicaCores)
	c.memPer = ar.memPer
	if c.memPer > cfg.NodeMemMB {
		return nil, fmt.Errorf("cluster: container footprint %d MB exceeds node memory %d MB", c.memPer, cfg.NodeMemMB)
	}
	c.place = newPlacement(&cfg, c.memPer)

	if cfg.Observe != nil {
		c.ob = newClusterObs(*cfg.Observe, cfg.Shards > 0)
	}
	if cfg.Shards > 0 {
		c.sh = newShardRun(c, cfg.Shards)
	} else {
		c.eng = sim.NewEngine()
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.addNode()
	}
	if cfg.Ingress != nil {
		if c.sh != nil {
			c.sh.fi = newFleetIngress(c)
		} else {
			c.buildIngress()
		}
	}

	for i := 0; i < cfg.Replicas; i++ {
		n := c.pickNode()
		if n == nil && len(c.nodes) < cfg.MaxNodes {
			// The requested replicas outgrow the initial nodes but fit
			// the autoscale ceiling — boot the extra nodes up front
			// rather than erroring on capacity the fleet is allowed.
			n = c.addNode()
		}
		if n == nil {
			return nil, fmt.Errorf("cluster: no capacity for initial replica %d (%d nodes × %d cores / %d MB, MaxNodes %d)",
				i+1, len(c.nodes), cfg.NodeCores, cfg.NodeMemMB, cfg.MaxNodes)
		}
		c.addContainer(n)
	}
	return c, nil
}

// ingressTier resolves the ingress tier's set-up for either engine:
// the fleet route, whose zero ConnSetup defaults to the architecture's
// connection-accept cost; the client entry route, which reaches the
// proxy under the fleet route's connection regime and never retries
// (retrying is the fleet route's job); and the proxy's cores.
func (c *Cluster) ingressTier() (route, entry ingress.RoutePolicy, cores int) {
	ic := c.cfg.Ingress
	route = ic.Route
	if route.ConnSetup == 0 {
		route.ConnSetup = ingress.ConnSetupCost(c.arch.rt)
	}
	entry = ingress.RoutePolicy{
		ConnSetup: route.ConnSetup, KeepAlive: route.KeepAlive, KeepAliveReqs: route.KeepAliveReqs,
	}
	cores = ic.Cores
	if cores <= 0 {
		cores = 2
	}
	return route, entry, cores
}

// buildIngress assembles the single-engine proxy→fleet service graph.
// Containers register as fleet replicas in addContainer; the graph is
// reseeded from the traffic seed at Run time.
func (c *Cluster) buildIngress() {
	route, entry, cores := c.ingressTier()
	g := ingress.NewGraph(c.eng, 0)
	proxy := g.AddService("ingress", ingress.Sequential)
	pq := sim.NewQueue(c.eng, "ingress", cores)
	proxy.AddBackend(pq, ingress.ProxyRequestCost(c.arch.rt), 1, nil)
	fleet := g.AddService("fleet", ingress.Sequential)
	g.Connect(proxy, fleet, route, 0)
	g.SetEntry(proxy, entry)
	g.OnRootDone = func(client uint64, lat cycles.Cycles, ok bool) {
		if c.rootDone(c.eng.Now(), lat, ok) {
			g.Admit(client)
		}
	}
	if c.ob != nil {
		g.Observe(&c.ob.stream, c.ob.rec)
		c.ob.traceQueue(pq, &c.ob.stream, 0, "ingress")
	}
	c.graph, c.fleetSvc = g, fleet
}

// addNode adds one fresh host to the fleet — capacity bookkeeping only;
// the archetype already carries every cost a node's containers charge.
func (c *Cluster) addNode() *node {
	c.nextNode++
	c.saturationNoted = false // fresh capacity ends a saturation episode
	n := &node{
		id:      c.nextNode,
		cores:   c.cfg.NodeCores,
		memMB:   c.cfg.NodeMemMB,
		addedAt: c.timeNow(),
	}
	c.nodes = append(c.nodes, n)
	c.place.join(n)
	return n
}

// addContainer stamps one flyweight replica onto the node and opens its
// traffic queue — no binary build, no boot: the archetype measured
// those charges once for every replica.
func (c *Cluster) addContainer(n *node) *container {
	c.nextCont++
	name := fmt.Sprintf("%s-%d", c.cfg.App.Name, c.nextCont)
	ct := &container{
		id:      c.nextCont,
		name:    name,
		node:    n,
		cores:   c.cfg.ReplicaCores,
		memMB:   c.memPer,
		backend: -1,
		version: 1,
	}
	if c.sh != nil {
		c.sh.placeReplica(ct)
	} else {
		ct.q = sim.NewQueue(c.eng, name, c.servers)
		if c.ob != nil {
			c.ob.traceQueue(ct.q, &c.ob.stream, uint32(ct.id), name)
		}
		ct.q.OnStart = func(j sim.Job) { c.onStart(ct, j) }
		if c.graph != nil {
			// The ingress graph owns completions (win/waste attribution and
			// root latency); the cluster keeps only the drain check.
			ct.backend = c.fleetSvc.AddBackend(ct.q, c.per, 1, func(sim.Job) {
				if ct.draining && ct.q.Depth() == 0 {
					c.retire(ct)
				}
			})
		} else {
			ct.q.OnDone = func(j sim.Job) { c.onDone(ct, j) }
		}
	}
	c.place.host(n, ct)
	c.containers = append(c.containers, ct)
	return ct
}

// EventsFired reports how many kernel events the run dispatched,
// summed over every engine — the denominator of perf probes.
func (c *Cluster) EventsFired() uint64 {
	if c.sh != nil {
		var n uint64
		for _, e := range c.sh.engines {
			n += e.Fired()
		}
		return n
	}
	return c.eng.Fired()
}

// timeNow is the current virtual time on whichever engine drives the
// run: the single engine's clock, or the sharded run's barrier clock
// (cross-replica code only ever executes at barriers).
func (c *Cluster) timeNow() cycles.Cycles {
	if c.sh != nil {
		return c.sh.now
	}
	return c.eng.Now()
}

// pickNode applies the placement policy over nodes with room for one
// more container, or returns nil; ties break on the lower node id, so
// placement is deterministic. BinPack and Spread picks read the
// placement index in O(NodeCores/ReplicaCores). So does LatencyAware
// before Run: every backlog is zero then, and its headroom tie-break is
// Spread's order. During a run a latency-aware pick snapshots per-node
// backlogs and scans the nodes, O(replicas + nodes) per pick; only
// autoscale and failover picks get there.
func (c *Cluster) pickNode() *node {
	if c.cfg.Policy == LatencyAware && c.ran {
		c.snapshotBacklogs()
		var best *node
		for _, n := range c.nodes {
			if c.place.fits(n) && (best == nil || c.better(n, best)) {
				best = n
			}
		}
		return best
	}
	if i := c.place.pick(c.cfg.Policy == BinPack); i >= 0 {
		return c.nodes[i]
	}
	return nil
}

// snapshotBacklogs fills backlogBuf with each node's current
// jobs-in-system count, indexed by node id - 1 (nodes are append-only).
func (c *Cluster) snapshotBacklogs() {
	if cap(c.backlogBuf) < len(c.nodes) {
		c.backlogBuf = make([]int, len(c.nodes)*2)
	}
	c.backlogBuf = c.backlogBuf[:len(c.nodes)]
	clear(c.backlogBuf)
	for _, ct := range c.containers {
		if !ct.gone {
			c.backlogBuf[ct.node.id-1] += ct.q.Depth()
		}
	}
}

// better reports whether a latency-aware pick prefers a over b: the
// smaller backlog snapshot, then (e.g. an idle fleet) more headroom,
// then the lower id.
func (c *Cluster) better(a, b *node) bool {
	if da, db := c.backlogBuf[a.id-1], c.backlogBuf[b.id-1]; da != db {
		return da < db
	}
	if a.usedCores != b.usedCores {
		return a.usedCores < b.usedCores
	}
	return a.id < b.id
}

// routableCt reports whether ct accepts new fleet traffic. Detector
// ejections take a replica out everywhere; a partition takes it out of
// the plain front door only — an ingress tier keeps routing to it
// blindly (that is what a partition means) until timeouts and the
// health detector steer around it.
func (c *Cluster) routableCt(ct *container) bool {
	if ct.gone || ct.draining || ct.node.failed || ct.ejected {
		return false
	}
	return !ct.partitioned || c.cfg.Ingress != nil
}

// routableCount counts containers accepting new requests.
func (c *Cluster) routableCount() int {
	n := 0
	for _, ct := range c.containers {
		if c.routableCt(ct) {
			n++
		}
	}
	return n
}

// dispatch routes one request onto the single engine's fleet. Without
// ingress this is deterministic join-shortest-queue with a
// rotating-cursor tie-break (mirroring internal/ingress): the scan
// starts where the last dispatch left off, so equal-depth replicas take
// turns instead of funneling into the lowest id — at fleet scale the
// old lowest-id tie-break aimed every burst's head at replica 1. With
// an ingress tier configured, requests enter the graph instead and the
// route policy decides everything downstream. The sharded engine
// admits at barriers against the epoch route table (shardRun.admitNow).
func (c *Cluster) dispatch(id uint64) {
	if c.graph != nil {
		c.dispatched++
		if c.ob != nil {
			c.ob.smp.Feed(c.eng.Now(), c.ob.kArrive, id, 0)
		}
		c.graph.Admit(id)
		return
	}
	n := len(c.containers)
	best := -1
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		ct := c.containers[idx]
		if !c.routableCt(ct) {
			continue
		}
		if best < 0 || ct.q.Depth() < c.containers[best].q.Depth() {
			best = idx
		}
	}
	if best < 0 {
		c.dropped++
		if c.ob != nil {
			c.ob.stream.Emit(c.eng.Now(), c.ob.kDropped, id, 0)
		}
		return
	}
	c.rr = best + 1
	c.dispatched++
	if c.ob != nil {
		c.ob.smp.Feed(c.eng.Now(), c.ob.kArrive, id, 0)
	}
	bct := c.containers[best]
	bct.q.Arrive(sim.Job{ID: id, Cost: c.costOf(bct), Born: c.eng.Now()})
}

// onStart attributes a job's busy cycles at the instant service begins,
// to whichever node hosts the container right then — a migrating
// container's jobs split correctly between source and destination.
func (c *Cluster) onStart(ct *container, j sim.Job) {
	c.winBusy += j.Cost
	ct.node.busy += j.Cost
	ct.node.winBusy += j.Cost
}

// onDone observes one completion: fleet and window statistics,
// closed-loop re-issue, and drain completion. A gray replica's
// completion can come back as an error: the request is Erred rather
// than served (closed-loop clients still re-issue).
func (c *Cluster) onDone(ct *container, j sim.Job) {
	lat := c.eng.Now() - j.Born
	if ct.errRate > 0 && ct.errRng.Float64() < ct.errRate {
		c.erred++
		if c.ob != nil {
			c.ob.stream.Emit(c.eng.Now(), c.ob.kErred, uint64(lat), 0)
		}
	} else {
		c.fleet.Observe(lat)
		c.win.Observe(lat)
		c.completed++
		if c.ob != nil {
			c.ob.stream.Emit(c.eng.Now(), c.ob.kServed, uint64(lat), uint64(j.Cost))
		}
	}
	if c.closedLoop && c.eng.Now() < c.horizon {
		c.dispatch(j.ID)
	}
	if ct.draining && ct.q.Depth() == 0 {
		c.retire(ct)
	}
}

// rootDone accounts one root request that the ingress tier finished
// at instant at, on either engine (the single engine's graph and the
// sharded engine's flyweight tier): latency spans the proxy hop,
// retries and hedges. A request the tier gave up on (timeout ladder
// exhausted, no routable replica, retry budget drained) is a drop: the
// client saw an error. It reports whether the closed-loop connection
// re-issues, which it does either way until the horizon.
func (c *Cluster) rootDone(at, lat cycles.Cycles, ok bool) bool {
	if ok {
		c.fleet.Observe(lat)
		c.win.Observe(lat)
		c.completed++
		if c.ob != nil {
			c.ob.cen.Emit(at, c.ob.kServed, uint64(lat), uint64(c.per))
		}
	} else {
		c.dropped++
		if c.ob != nil {
			c.ob.cen.Emit(at, c.ob.kErred, uint64(lat), 0)
		}
	}
	return c.closedLoop && c.timeNow() < c.horizon
}

// noteUnroutable tells the single engine's ingress graph that a
// container stopped taking new requests (draining, stranded or
// ejected). The plain front door reads the container flags directly,
// and the sharded engine's route table is rebuilt after every step
// that can change them.
func (c *Cluster) noteUnroutable(ct *container) {
	if c.graph != nil && ct.backend >= 0 {
		c.fleetSvc.SetDown(ct.backend, true)
	}
}
