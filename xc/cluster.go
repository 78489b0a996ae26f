package xc

import (
	"encoding/json"
	"fmt"
	"strings"

	"xcontainers/internal/chaos"
	"xcontainers/internal/cluster"
	"xcontainers/internal/core"
)

// PlacementPolicy selects how a cluster places containers onto nodes.
type PlacementPolicy = cluster.Policy

const (
	// BinPack consolidates: fill the most-loaded node that still fits.
	BinPack = cluster.BinPack
	// Spread maximizes headroom: place on the least-loaded node.
	Spread = cluster.Spread
	// LatencyAware places where the current request backlog is smallest.
	LatencyAware = cluster.LatencyAware
)

// ParsePolicy resolves a placement policy name, case-insensitively.
func ParsePolicy(s string) (PlacementPolicy, error) {
	return cluster.ParsePolicy(strings.ToLower(strings.TrimSpace(s)))
}

// PolicyUsage renders the known policy names for flag help strings.
func PolicyUsage() string { return "binpack|spread|latency" }

// ClusterSpec sizes and arms a cluster experiment. The zero value is a
// one-node fleet with no SLO, no autoscaling, and no failure injection.
type ClusterSpec struct {
	// Nodes is the initial node count (default 1); MaxNodes bounds
	// autoscaling node growth (default Nodes).
	Nodes    int
	MaxNodes int
	// NodeCores and NodeMemMB size each node (defaults 4 cores, 1024 MB).
	NodeCores int
	NodeMemMB int
	// Replicas is the initial container count (default: the traffic
	// spec's Containers, else one per node).
	Replicas int
	// Policy places containers onto nodes (default BinPack).
	Policy PlacementPolicy
	// SLOMillis arms the latency signal: control windows whose p99
	// sojourn exceeds it count as SLO breaches and, with Autoscale,
	// trigger scale-up (0 = no latency signal). It must be finite and
	// not negative, like FailNode and EpochMicros.
	SLOMillis float64
	// Autoscale enables the scale-up/scale-down control loop;
	// rebalancing live migrations run regardless.
	Autoscale bool
	// FailNode, when > 0, kills one seeded-randomly chosen node at that
	// virtual second; its containers are rescheduled onto survivors.
	// It is the one-fault special case of Chaos and exclusive with it.
	FailNode float64
	// Chaos, when non-empty, arms a declarative fault plan — the
	// semicolon-separated DSL of chaos.Parse: "kind@at[+dur],key=val"
	// entries over crash/gray/partition/restart, plus "probes,..."
	// for the health sweep that ejects and readmits replicas. Example:
	// "gray@0.2+0.1,count=3,err=0.3;probes,interval=0.005". The report
	// grows a chaos section.
	Chaos string
	// Deploy, when non-empty, runs an SLO-guarded rollout — the DSL of
	// cluster.ParseDeploy: "strategy@start[,key=val...]" with strategy
	// rolling, canary, or bluegreen, e.g. "canary@0.1,frac=0.1,err=0.02".
	// The guard watches windowed p99 and error rate and rolls back on
	// consecutive breaches. The report grows a deploy section.
	Deploy string
	// Ingress, when non-nil, fronts the fleet with the L7 ingress tier:
	// requests pay the proxy hop and reach replicas under the spec's
	// load-balancing and robustness policy, instead of the built-in
	// join-shortest-queue front door. The report grows per-route and
	// per-service sections.
	Ingress *IngressSpec
	// Shards, when >= 1, runs the fleet on the epoch-sharded engine:
	// replicas spread over per-shard event engines advancing in parallel
	// between epoch barriers on a pool of min(GOMAXPROCS, Shards)
	// workers. Reports are byte-identical for any Shards >= 1 and any
	// GOMAXPROCS; the sharded model quantizes routing and control to
	// epochs, so it differs from Shards == 0.
	Shards int
	// EpochMicros is the sharded engine's barrier period in virtual
	// microseconds (0 = twice the per-request cost, capped at 500) — a
	// model parameter, unlike Shards.
	EpochMicros float64
	// Observe, when non-nil, arms the observability layer: the report
	// gains a TimeSeries and a WriteTrace-able flight-recorder trace,
	// byte-identical for any Shards >= 1 and any GOMAXPROCS.
	Observe *ObserveSpec
}

// Cluster is a fleet factory: one container architecture plus platform
// options, ready to serve traffic experiments over many nodes.
type Cluster struct {
	cfg  Config
	name string // the runtime's display name, resolved at construction
}

// NewCluster prepares a multi-node fleet of the given architecture.
// Options are the platform options NewPlatform takes, and every node
// boots with them — except the machine-memory bounds (WithMachineMB,
// WithMachineFrames), which are rejected here: node capacity belongs to
// ClusterSpec (NodeCores, NodeMemMB).
func NewCluster(kind Kind, opts ...Option) (*Cluster, error) {
	cfg := Config{
		Kind:            kind,
		MeltdownPatched: true,
		Cloud:           LocalCluster,
		FastToolstack:   true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.MachineMB != 0 || cfg.MachineFrames != 0 {
		return nil, fmt.Errorf("xc: cluster nodes are sized by ClusterSpec.NodeMemMB, not WithMachineMB/WithMachineFrames")
	}
	// Boot one throwaway platform so bad configurations (unknown kind,
	// cloud without nested virt, ...) fail here rather than in Serve.
	probe, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, name: probe.Runtime().Name()}, nil
}

// MustNewCluster is NewCluster for static configurations.
func MustNewCluster(kind Kind, opts ...Option) *Cluster {
	c, err := NewCluster(kind, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Kind returns the fleet's container architecture.
func (c *Cluster) Kind() Kind { return c.cfg.Kind }

// Name renders the architecture like the paper's legends.
func (c *Cluster) Name() string { return c.name }

// Serve runs one traffic experiment of the workload's application model
// over a fleet sized by spec, driven by the same TrafficSpec
// Platform.Serve takes: Rate/Paced/Burst/Duration/Seed for the arrival
// process, Connections for closed loops, Cores for per-container core
// reservations, Workers for worker processes, and Containers for the
// initial replica count. Runs are byte-deterministic per seed.
func (c *Cluster) Serve(w *Workload, spec ClusterSpec, t *TrafficSpec) (*ClusterReport, error) {
	app, t, err := serveInputs(w, t)
	if err != nil {
		return nil, err
	}
	replicas := spec.Replicas
	if replicas == 0 {
		replicas = t.containers
	}
	cfg := cluster.Config{
		Platform:      c.cfg,
		App:           app,
		Workers:       t.workers,
		Nodes:         spec.Nodes,
		MaxNodes:      spec.MaxNodes,
		NodeCores:     spec.NodeCores,
		NodeMemMB:     spec.NodeMemMB,
		Replicas:      replicas,
		ReplicaCores:  t.cores,
		Policy:        spec.Policy,
		SLOp99US:      spec.SLOMillis * 1000,
		Autoscale:     spec.Autoscale,
		FailNodeAtSec: spec.FailNode,
		Shards:        spec.Shards,
		EpochUS:       spec.EpochMicros,
		Observe:       spec.Observe.options(),
	}
	if in := spec.Ingress; in != nil {
		if err := in.validate(); err != nil {
			return nil, err
		}
		cfg.Ingress = &cluster.IngressConfig{Route: in.route(), Cores: in.cores}
	}
	if spec.Chaos != "" {
		plan, err := chaos.Parse(spec.Chaos)
		if err != nil {
			return nil, err
		}
		cfg.Chaos = plan
	}
	if spec.Deploy != "" {
		dep, err := cluster.ParseDeploy(spec.Deploy)
		if err != nil {
			return nil, err
		}
		cfg.Deploy = dep
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := cl.Run(t.load)
	if err != nil {
		return nil, err
	}
	return c.report(w, spec, res), nil
}

// NodeReport is one node's lifetime summary in a ClusterReport.
type NodeReport struct {
	ID            int     `json:"id"`
	Containers    int     `json:"containers"`
	Utilization   float64 `json:"utilization"`
	MigrationsIn  int     `json:"migrations_in"`
	MigrationsOut int     `json:"migrations_out"`
	Failed        bool    `json:"failed,omitempty"`
	Removed       bool    `json:"removed,omitempty"`
	AddedSec      float64 `json:"added_sec"`
	RemovedSec    float64 `json:"removed_sec,omitempty"`
}

// MigrationReport records one container move between nodes.
type MigrationReport struct {
	AtSec      float64 `json:"at_sec"`
	Container  string  `json:"container"`
	FromNode   int     `json:"from_node"`
	ToNode     int     `json:"to_node"`
	DowntimeUS float64 `json:"downtime_us"`
	Reason     string  `json:"reason"`
}

// ChaosReport summarizes what a fault plan injected and what the
// health machinery detected.
type ChaosReport struct {
	Faults      int `json:"faults"`
	Crashes     int `json:"crashes,omitempty"`
	GrayWindows int `json:"gray_windows,omitempty"`
	Partitions  int `json:"partitions,omitempty"`
	Restarts    int `json:"restarts,omitempty"`

	ProbesSent    uint64 `json:"probes_sent,omitempty"`
	ProbeFailures uint64 `json:"probe_failures,omitempty"`
	Ejections     int    `json:"ejections,omitempty"`
	Readmissions  int    `json:"readmissions,omitempty"`
}

// DeployReport summarizes one SLO-guarded rollout.
type DeployReport struct {
	Strategy      string  `json:"strategy"`
	StartedSec    float64 `json:"started_sec"`
	FinishedSec   float64 `json:"finished_sec,omitempty"`
	Upgraded      int     `json:"upgraded"`
	RolledBack    int     `json:"rolled_back,omitempty"`
	Outcome       string  `json:"outcome"`
	GuardBreaches int     `json:"guard_breaches,omitempty"`
}

// ScaleEventReport records one autoscaler action.
type ScaleEventReport struct {
	AtSec  float64 `json:"at_sec"`
	Action string  `json:"action"`
	Detail string  `json:"detail,omitempty"`
}

// ClusterReport is the structured outcome of one Cluster.Serve: fleet
// identity, per-node utilization, migrations, scale events, and the
// fleet-wide latency distribution. It marshals to stable JSON and is
// byte-deterministic for a fixed spec and seed.
type ClusterReport struct {
	App     string `json:"app"`
	Runtime string `json:"runtime"`
	Kind    string `json:"kind"`
	Cloud   string `json:"cloud"`
	Patched bool   `json:"meltdown_patched"`

	Policy         string  `json:"policy"`
	Seed           uint64  `json:"seed"`
	VirtualSeconds float64 `json:"virtual_seconds"`

	Throughput Throughput   `json:"throughput"`
	Latency    LatencyStats `json:"latency"`
	Queue      QueueStats   `json:"queue"`

	Arrived   uint64 `json:"arrived"`
	Completed uint64 `json:"completed"`
	Dropped   uint64 `json:"dropped,omitempty"`
	// Erred counts requests gray replicas answered with an error at the
	// plain front door (behind ingress, errors feed the retry ladder).
	Erred       uint64 `json:"erred,omitempty"`
	Connections int    `json:"connections,omitempty"`

	Nodes          []NodeReport `json:"nodes"`
	PeakNodes      int          `json:"peak_nodes"`
	PeakContainers int          `json:"peak_containers"`

	SLOMillis   float64            `json:"slo_ms,omitempty"`
	SLOBreaches int                `json:"slo_breaches"`
	Autoscale   bool               `json:"autoscale"`
	ScaleEvents []ScaleEventReport `json:"scale_events"`
	Migrations  []MigrationReport  `json:"migrations"`

	// Routes and IngressServices are the ingress tier's per-route and
	// per-service sections — absent when the fleet runs the built-in
	// join-shortest-queue front door (ClusterSpec.Ingress nil).
	Routes          []RouteReport   `json:"routes,omitempty"`
	IngressServices []ServiceReport `json:"ingress_services,omitempty"`

	// Chaos and Deploy appear only when ClusterSpec armed them; without
	// a plan or rollout the report marshals byte-identically to earlier
	// releases.
	Chaos  *ChaosReport  `json:"chaos,omitempty"`
	Deploy *DeployReport `json:"deploy,omitempty"`

	// TimeSeries appears only when the run was observed
	// (ClusterSpec.Observe); without a spec the report marshals
	// byte-identically to earlier releases.
	TimeSeries *TimeSeries `json:"time_series,omitempty"`

	trace *obsRecorder
}

func (c *Cluster) report(w *Workload, spec ClusterSpec, res *cluster.Result) *ClusterReport {
	rep := &ClusterReport{
		App:     w.name,
		Runtime: c.name,
		Kind:    KindName(c.cfg.Kind),
		Cloud:   CloudName(c.cfg.Cloud),
		Patched: c.cfg.MeltdownPatched,

		Policy:         res.Policy,
		Seed:           res.Seed,
		VirtualSeconds: res.DurationSec,

		Latency: LatencyStats{
			MeanUS: res.LatencyUS,
			P50US:  res.P50US,
			P95US:  res.P95US,
			P99US:  res.P99US,
			MaxUS:  res.MaxUS,
		},
		Queue: QueueStats{
			MeanDepth:   res.MeanQueueDepth,
			MaxDepth:    res.MaxQueueDepth,
			Utilization: res.Utilization,
		},

		Arrived:     res.Arrived,
		Completed:   res.Completed,
		Dropped:     res.Dropped,
		Erred:       res.Erred,
		Connections: res.Population,

		PeakNodes:      res.PeakNodes,
		PeakContainers: res.PeakContainers,

		SLOMillis:   spec.SLOMillis,
		SLOBreaches: res.SLOBreaches,
		Autoscale:   spec.Autoscale,

		ScaleEvents: []ScaleEventReport{},
		Migrations:  []MigrationReport{},
	}
	rep.Throughput.RequestsPerSec = res.Throughput
	rep.Throughput.OfferedPerSec = res.OfferedRate
	for _, n := range res.Nodes {
		rep.Nodes = append(rep.Nodes, NodeReport{
			ID:            n.ID,
			Containers:    n.Containers,
			Utilization:   n.Utilization,
			MigrationsIn:  n.MigrationsIn,
			MigrationsOut: n.MigrationsOut,
			Failed:        n.Failed,
			Removed:       n.Removed,
			AddedSec:      n.AddedSec,
			RemovedSec:    n.RemovedSec,
		})
	}
	for _, e := range res.ScaleEvents {
		rep.ScaleEvents = append(rep.ScaleEvents, ScaleEventReport(e))
	}
	for _, m := range res.Migrations {
		rep.Migrations = append(rep.Migrations, MigrationReport{
			AtSec:      m.AtSec,
			Container:  m.Container,
			FromNode:   m.FromNode,
			ToNode:     m.ToNode,
			DowntimeUS: m.DowntimeUS,
			Reason:     m.Reason,
		})
	}
	rep.Routes = res.Routes
	rep.IngressServices = res.IngressServices
	if x := res.Chaos; x != nil {
		rep.Chaos = &ChaosReport{
			Faults:        x.Faults,
			Crashes:       x.Crashes,
			GrayWindows:   x.GrayWindows,
			Partitions:    x.Partitions,
			Restarts:      x.Restarts,
			ProbesSent:    x.ProbesSent,
			ProbeFailures: x.ProbeFailures,
			Ejections:     x.Ejections,
			Readmissions:  x.Readmissions,
		}
	}
	if d := res.Deploy; d != nil {
		rep.Deploy = &DeployReport{
			Strategy:      d.Strategy,
			StartedSec:    d.StartedSec,
			FinishedSec:   d.FinishedSec,
			Upgraded:      d.Upgraded,
			RolledBack:    d.RolledBack,
			Outcome:       d.Outcome,
			GuardBreaches: d.GuardBreaches,
		}
	}
	rep.TimeSeries = res.TimeSeries
	rep.trace = res.Trace
	return rep
}

// JSON marshals the report as an indented JSON document.
func (r *ClusterReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report for terminals.
func (r *ClusterReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app:            %s\n", r.App)
	fmt.Fprintf(&b, "runtime:        %s (cloud %s)\n", r.Runtime, r.Cloud)
	fmt.Fprintf(&b, "cluster:        policy %s, peak %d nodes / %d containers, seed %d\n",
		r.Policy, r.PeakNodes, r.PeakContainers, r.Seed)
	fmt.Fprintf(&b, "served:         %.0f requests/s", r.Throughput.RequestsPerSec)
	if r.Throughput.OfferedPerSec > 0 {
		fmt.Fprintf(&b, " (offered %.0f/s)", r.Throughput.OfferedPerSec)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency:        mean %.1fus, p50 %.1fus, p95 %.1fus, p99 %.1fus\n",
		r.Latency.MeanUS, r.Latency.P50US, r.Latency.P95US, r.Latency.P99US)
	if r.SLOMillis > 0 {
		fmt.Fprintf(&b, "SLO:            p99 < %.1fms, %d window breaches\n", r.SLOMillis, r.SLOBreaches)
	}
	for _, n := range r.Nodes {
		state := ""
		if n.Failed {
			state = " FAILED"
		} else if n.Removed {
			state = " drained"
		}
		fmt.Fprintf(&b, "node %-2d:        %d containers, %5.1f%% utilized, migrations %d in / %d out%s\n",
			n.ID, n.Containers, 100*n.Utilization, n.MigrationsIn, n.MigrationsOut, state)
	}
	fmt.Fprintf(&b, "migrations:     %d", len(r.Migrations))
	for _, m := range r.Migrations {
		fmt.Fprintf(&b, "\n  %7.3fs %s node %d -> node %d, %.0fus blackout (%s)",
			m.AtSec, m.Container, m.FromNode, m.ToNode, m.DowntimeUS, m.Reason)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "scale events:   %d", len(r.ScaleEvents))
	for _, e := range r.ScaleEvents {
		fmt.Fprintf(&b, "\n  %7.3fs %-14s %s", e.AtSec, e.Action, e.Detail)
	}
	b.WriteByte('\n')
	if x := r.Chaos; x != nil {
		fmt.Fprintf(&b, "chaos:          %d faults (%d crashes, %d gray, %d partitioned, %d restarts)\n",
			x.Faults, x.Crashes, x.GrayWindows, x.Partitions, x.Restarts)
		if x.ProbesSent > 0 {
			fmt.Fprintf(&b, "health:         %d probes, %d failed, %d ejections / %d readmissions\n",
				x.ProbesSent, x.ProbeFailures, x.Ejections, x.Readmissions)
		}
		if r.Erred > 0 {
			fmt.Fprintf(&b, "errors:         %d requests answered with errors\n", r.Erred)
		}
	}
	if d := r.Deploy; d != nil {
		fmt.Fprintf(&b, "deploy:         %s %s at %.3fs", d.Strategy, d.Outcome, d.StartedSec)
		if d.FinishedSec > 0 {
			fmt.Fprintf(&b, " (finished %.3fs)", d.FinishedSec)
		}
		fmt.Fprintf(&b, ", %d upgraded", d.Upgraded)
		if d.RolledBack > 0 {
			fmt.Fprintf(&b, ", %d rolled back", d.RolledBack)
		}
		if d.GuardBreaches > 0 {
			fmt.Fprintf(&b, ", %d guard breaches", d.GuardBreaches)
		}
		b.WriteByte('\n')
	}
	writeIngressSections(&b, r.Routes, r.IngressServices)
	return b.String()
}
