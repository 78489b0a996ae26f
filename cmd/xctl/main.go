// Command xctl is the toolstack front-end — the xl analogue for the
// simulated X-Containers platform. It drives a scripted sequence of
// domain operations (create, balloon, migrate, destroy) against
// in-process hosts, prints the isolation surfaces, and runs multi-node
// cluster experiments with placement, autoscaling, and live-migration
// rebalancing.
//
// Usage:
//
//	xctl demo                 run the full lifecycle demonstration
//	xctl surfaces             print the isolation surfaces (xl info)
//	xctl -cluster -nodes 2 -policy binpack -slo 0.5 -rate 1500000 -json
//
// Cluster mode sizes a fleet (-nodes, -node-cores, -max-nodes), arms
// the autoscaler (-slo in milliseconds, -autoscale) and failure
// injection (-fail-node), and drives open- or closed-loop traffic
// through it; the resulting ClusterReport (per-node utilization,
// migrations, scale events, fleet percentiles) prints human-readably or
// as one JSON document with -json. Runs are deterministic per -seed.
//
// -chaos-plan generalizes -fail-node to a declarative fault timeline —
// crashes, gray (slow-not-dead) windows, network partitions, and
// crash-restarts, plus an optional health-probe sweep that ejects and
// readmits replicas — and -deploy runs an SLO-guarded rollout (rolling,
// canary, or blue-green) that rolls back automatically when the guard's
// p99 or error-rate ceiling is breached:
//
//	xctl -cluster -replicas 500 -deploy "canary@0.1,frac=0.05,err=0.02" \
//	    -chaos-plan "gray@0.05+10,version=2,err=0.5" -rate 300000 -json
//
// -ingress-policy fronts the fleet with the L7 ingress tier instead of
// the built-in JSQ front door: requests pay the proxy hop and reach
// replicas under the chosen load balancer (rr|weighted|jsq|p2c) with
// -keepalive connection amortization, an optional robustness ladder
// (-timeout-us, -retries, -hedge-p), and overload protection
// (-breaker-rate, -shed-depth). The report grows per-route and
// per-service sections.
//
// -shards runs the fleet on the epoch-sharded engine — the path to
// planet-scale runs like:
//
//	xctl -cluster -nodes 10000 -replicas 10000 -shards 8 -duration 0.01 -json
//
// Reports are byte-identical for any -shards >= 1 and any GOMAXPROCS,
// which sizes the worker pools (shard engines, sweep replications);
// -epoch-us tunes the barrier period (a model parameter, unlike
// -shards).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"xcontainers/internal/xkernel"
	"xcontainers/xc"
)

// errUsage marks a usage error: returned bare when the FlagSet already
// printed its own message, or wrapped (with %w at the end — its text is
// empty, so messages stay clean) when the caller supplies one. Either
// way main exits with the usage status.
var errUsage = errors.New("")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != errUsage { // the bare sentinel means the FlagSet already reported
			fmt.Fprintln(os.Stderr, "xctl:", err)
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xctl", flag.ContinueOnError)
	clusterMode := fs.Bool("cluster", false, "run a multi-node cluster experiment")
	rtName := fs.String("runtime", "xcontainer", "cluster architecture: "+xc.KindUsage())
	appName := fs.String("app", "memcached", "cluster application model (Table 1 name)")
	nodes := fs.Int("nodes", 2, "cluster: initial node count")
	maxNodes := fs.Int("max-nodes", 0, "cluster: autoscale node ceiling (0 = -nodes)")
	nodeCores := fs.Int("node-cores", 4, "cluster: cores per node")
	replicas := fs.Int("replicas", 0, "cluster: initial containers (0 = one per node)")
	policy := fs.String("policy", "binpack", "cluster placement policy: "+xc.PolicyUsage())
	slo := fs.Float64("slo", 0, "cluster: p99 latency SLO in milliseconds (0 = no latency signal)")
	autoscale := fs.Bool("autoscale", true, "cluster: enable the autoscaler")
	failNode := fs.Float64("fail-node", 0, "cluster: kill one seeded-random node at this virtual second")
	chaosPlan := fs.String("chaos-plan", "", "cluster: declarative fault plan, e.g. \"crash@0.2;gray@0.3+0.1,count=2,err=0.3;probes,interval=0.005\" (kinds: crash|gray|partition|restart, plus probes)")
	deploySpec := fs.String("deploy", "", "cluster: SLO-guarded rollout, e.g. \"canary@0.1,frac=0.1,err=0.02\" (strategies: rolling|canary|bluegreen)")
	shards := fs.Int("shards", 0, "cluster: run on the epoch-sharded engine with this many shards (0 = single engine; reports are identical for any value >= 1)")
	epochUS := fs.Float64("epoch-us", 0, "cluster sharded engine: barrier period in virtual microseconds (0 = twice the per-request cost, capped at 500)")
	ingressPolicy := fs.String("ingress-policy", "", "cluster: front the fleet with the L7 ingress tier using this load balancer ("+xc.LBUsage()+"; empty = built-in JSQ front door)")
	breakerRate := fs.Float64("breaker-rate", 0, "cluster ingress: circuit-breaker failure-rate trip threshold in (0,1] (0 = off)")
	shedDepth := fs.Int("shed-depth", 0, "cluster ingress: shed calls when mean backlog per replica exceeds this depth (0 = off)")
	keepAlive := fs.Int("keepalive", 100, "cluster ingress: requests amortized per connection (0 = a fresh connection per request)")
	retries := fs.Int("retries", 0, "cluster ingress: retry attempts after a timeout (needs -timeout-us)")
	timeoutUS := fs.Float64("timeout-us", 0, "cluster ingress: per-attempt timeout in virtual microseconds (0 = none)")
	hedgeP := fs.Float64("hedge-p", 0, "cluster ingress: hedge attempts outliving this latency quantile, e.g. 0.99 (0 = off)")
	rate := fs.Float64("rate", 0, "cluster traffic: offered requests/s (0 = saturating closed loop)")
	duration := fs.Float64("duration", 1, "cluster traffic: horizon in virtual seconds")
	seed := fs.Uint64("seed", 0, "cluster traffic: arrival randomness seed")
	jsonOut := fs.Bool("json", false, "emit the cluster report as a JSON document")
	sweepRates := fs.String("sweep-rates", "", "cluster: comma-separated offered rates; runs a parallel sweep instead of one experiment")
	sweepSeeds := fs.Int("seeds", 1, "cluster sweep: replications per rate (seeds 1..n)")
	traceOut := fs.String("trace", "", "cluster: write the run's flight-recorder trace as Chrome trace-event JSON (Perfetto) to this file; implies observability")
	metricsOut := fs.String("metrics-out", "", "cluster: write the run's windowed time series as CSV to this file; implies observability")
	metricsWindowUS := fs.Float64("metrics-window-us", 0, "cluster observability: time-series window width in virtual microseconds (0 = 1000)")
	queueDepth := fs.Bool("queue-depth", false, "cluster observability: trace per-replica queue depth (verbose)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file, with samples labeled by phase (boot/run/report)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	return withProfiles(*cpuProfile, *memProfile, func() error {
		if *clusterMode {
			if fs.NArg() > 0 {
				return fmt.Errorf("-cluster takes no command argument, got %q%w", fs.Arg(0), errUsage)
			}
			return runCluster(stdout, clusterOptions{
				runtime: *rtName, app: *appName,
				nodes: *nodes, maxNodes: *maxNodes, nodeCores: *nodeCores, replicas: *replicas,
				policy: *policy, sloMillis: *slo, autoscale: *autoscale, failNode: *failNode,
				chaosPlan: *chaosPlan, deploySpec: *deploySpec,
				shards: *shards, epochUS: *epochUS,
				ingressPolicy: *ingressPolicy, keepAlive: *keepAlive, retries: *retries,
				timeoutUS: *timeoutUS, hedgeP: *hedgeP,
				breakerRate: *breakerRate, shedDepth: *shedDepth,
				rate: *rate, duration: *duration, seed: *seed, jsonOut: *jsonOut,
				sweepRates: *sweepRates, sweepSeeds: *sweepSeeds,
				traceOut: *traceOut, metricsOut: *metricsOut,
				metricsWindowUS: *metricsWindowUS, queueDepth: *queueDepth,
			})
		}

		cmd := "demo"
		if fs.NArg() > 0 {
			cmd = fs.Arg(0)
		}
		switch cmd {
		case "demo":
			return demo(stdout)
		case "surfaces":
			surfaces(stdout)
			return nil
		}
		return fmt.Errorf("unknown command %q (try: demo, surfaces, or -cluster)%w", cmd, errUsage)
	})
}

// withProfiles brackets fn with the requested pprof outputs: a CPU
// profile spanning the whole invocation (phase labels mark boot/run/
// report spans inside it) and a heap snapshot written after fn
// returns, post-GC so it shows live bytes, not garbage.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// phase runs fn with pprof samples labeled phase=name, so a -cpuprofile
// flame graph separates fleet construction, the event loop, and report
// rendering.
func phase(name string, fn func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		err = fn()
	})
	return err
}

type clusterOptions struct {
	runtime, app                         string
	nodes, maxNodes, nodeCores, replicas int
	policy                               string
	sloMillis, failNode                  float64
	chaosPlan, deploySpec                string
	autoscale                            bool
	shards                               int
	epochUS                              float64
	ingressPolicy                        string
	keepAlive, retries                   int
	timeoutUS, hedgeP                    float64
	breakerRate                          float64
	shedDepth                            int
	rate, duration                       float64
	seed                                 uint64
	jsonOut                              bool
	sweepRates                           string
	sweepSeeds                           int
	traceOut, metricsOut                 string
	metricsWindowUS                      float64
	queueDepth                           bool
}

func runCluster(stdout io.Writer, o clusterOptions) error {
	kind, err := xc.ParseKind(o.runtime)
	if err != nil {
		return err
	}
	pol, err := xc.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	var c *xc.Cluster
	if err := phase("boot", func() error {
		c, err = xc.NewCluster(kind)
		return err
	}); err != nil {
		return err
	}
	spec := xc.ClusterSpec{
		Nodes:     o.nodes,
		MaxNodes:  o.maxNodes,
		NodeCores: o.nodeCores,
		Replicas:  o.replicas,
		Policy:    pol,
		SLOMillis: o.sloMillis,
		Autoscale: o.autoscale,
		FailNode:  o.failNode,
		Chaos:     o.chaosPlan,
		Deploy:    o.deploySpec,

		Shards:      o.shards,
		EpochMicros: o.epochUS,
	}
	if o.ingressPolicy != "" {
		lb, err := xc.ParseLB(o.ingressPolicy)
		if err != nil {
			return err
		}
		in := xc.Ingress().Policy(lb).
			TimeoutMicros(o.timeoutUS).Retries(o.retries).Hedge(o.hedgeP).
			Breaker(o.breakerRate).Shed(o.shedDepth)
		if o.keepAlive > 0 {
			in.KeepAlive(o.keepAlive)
		} else {
			in.PerRequestConns()
		}
		spec.Ingress = in
	}
	observed := o.traceOut != "" || o.metricsOut != "" || o.metricsWindowUS > 0 || o.queueDepth
	if observed {
		ob := xc.Observe().WindowMicros(o.metricsWindowUS)
		if o.queueDepth {
			ob.QueueDepth()
		}
		spec.Observe = ob
	}
	if o.sweepRates != "" {
		if observed {
			return fmt.Errorf("-trace/-metrics-out apply to a single experiment, not a sweep%w", errUsage)
		}
		return runClusterSweep(stdout, o, kind, spec)
	}
	traffic := xc.Traffic().Rate(o.rate).Duration(o.duration).Seed(o.seed)
	var rep *xc.ClusterReport
	if err := phase("run", func() error {
		var err error
		rep, err = c.Serve(xc.App(o.app), spec, traffic)
		return err
	}); err != nil {
		return err
	}
	return phase("report", func() error {
		if o.traceOut != "" {
			if err := writeFile(o.traceOut, rep.WriteTrace); err != nil {
				return err
			}
		}
		if o.metricsOut != "" {
			if err := writeFile(o.metricsOut, rep.TimeSeries.WriteCSV); err != nil {
				return err
			}
		}
		if o.jsonOut {
			blob, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(blob))
			return nil
		}
		fmt.Fprint(stdout, rep)
		return nil
	})
}

// writeFile creates path and streams write into it, closing cleanly.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runClusterSweep replicates the cluster experiment across -sweep-rates
// × -seeds on a GOMAXPROCS-wide worker pool and prints the merged
// SweepReport.
func runClusterSweep(stdout io.Writer, o clusterOptions, kind xc.Kind, spec xc.ClusterSpec) error {
	rates, err := xc.ParseRates(o.sweepRates)
	if err != nil {
		return err
	}
	seeds, err := xc.SeedRange(o.sweepSeeds)
	if err != nil {
		return err
	}
	rep, err := xc.Sweep(xc.SweepSpec{
		Kind:     kind,
		Workload: xc.App(o.app),
		Traffic:  xc.Traffic().Duration(o.duration),
		Rates:    rates,
		Seeds:    seeds,
		Cluster:  &spec,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		blob, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
		return nil
	}
	fmt.Fprint(stdout, rep)
	return nil
}

func surfaces(stdout io.Writer) {
	x := xkernel.XKernelSurface()
	l := xkernel.LinuxSurface()
	fmt.Fprintf(stdout, "%-16s %-14s %-12s %s\n", "boundary", "entry points", "TCB (KLoC)", "shared")
	fmt.Fprintf(stdout, "%-16s %-14d %-12d %v\n", x.Name, x.Interfaces, x.TCBKLoC, x.SharedState)
	fmt.Fprintf(stdout, "%-16s %-14d %-12d %v\n", l.Name, l.Interfaces, l.TCBKLoC, l.SharedState)
}

func demo(stdout io.Writer) error {
	program, err := xc.SyscallLoop("getpid", 1000).Build()
	if err != nil {
		return err
	}

	newHost := func(name string, memMB int) (*xc.Platform, error) {
		// The demo models an unpatched host, as the original did.
		p, err := xc.NewPlatform(xc.XContainer,
			xc.WithMachineMB(memMB), xc.WithMeltdownPatched(false))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(stdout, "xctl: host %s up (%d MB)\n", name, memMB)
		return p, nil
	}

	hostA, err := newHost("host-a", 1024)
	if err != nil {
		return err
	}
	hostB, err := newHost("host-b", 1024)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\nxctl create worker (128 MB, 1 vCPU)")
	inst, err := hostA.Boot(xc.Image{Name: "worker", Program: program})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  booted in %v, domain id %d\n", inst.BootTime, inst.Container.Dom.ID)

	fmt.Fprintln(stdout, "\nxctl mem-set worker -32M (balloon down)")
	if err := hostA.Runtime().Hyper.BalloonAdjust(inst.Container.Dom, -32*256); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  reservation now %d MB\n", inst.Container.Dom.MemoryPages/256)

	fmt.Fprintln(stdout, "\nxctl run worker (partial)")
	_, _ = inst.Run(2000)
	s := inst.Stats()
	fmt.Fprintf(stdout, "  %d instructions, %d trap, %d function calls (ABOM: %d sites)\n",
		s.Instructions, s.RawSyscalls, s.FunctionCalls, s.ABOMPatches)

	fmt.Fprintln(stdout, "\nxctl migrate worker host-b")
	moved, err := xc.Migrate(hostA, inst, hostB)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  host-a domains: %d, host-b domains: %d\n",
		hostA.Runtime().Hyper.Domains(), hostB.Runtime().Hyper.Domains())

	fmt.Fprintln(stdout, "\nxctl run worker (to completion on host-b)")
	if _, err := moved.Run(100_000_000); err != nil {
		return err
	}
	s = moved.Stats()
	fmt.Fprintf(stdout, "  finished: %d function calls, destination traps: %d\n",
		s.FunctionCalls, hostB.Runtime().Hyper.Stats.SyscallsForwarded)

	fmt.Fprintln(stdout, "\nxctl destroy worker")
	if err := hostB.Destroy(moved); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  host-b domains: %d\n", hostB.Runtime().Hyper.Domains())
	return nil
}
