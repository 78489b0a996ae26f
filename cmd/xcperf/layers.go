package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xcontainers/internal/bench"
)

// layerRun is the traced run of one workload. Its per-layer numbers
// come only from outside the program: spans around the calls into each
// layer, a CPU profile of the serve phase, the deterministic counts of
// the result, a pass at one shard worker, and the bench.KernelPerf
// probes. base holds the workload's untraced passes; the passes made
// here are judged into it but do not enter its end-to-end metrics.
func layerRun(bin string, w *workload, base *workloadResult, dir string) (map[string]float64, []traceEvent, error) {
	in := layerInputs{
		serveS: base.median(func(s *passSample) float64 { return s.report.ServeS }),
		wallS:  base.median(func(s *passSample) float64 { return s.WallS }),
	}
	prof := filepath.Join(dir, w.name+".pprof")
	s, err := runPass(bin, w, passOpts{seed: base.Seed, profile: prof})
	if err != nil {
		return nil, nil, err
	}
	if !base.count(s) || s.report == nil {
		return nil, nil, fmt.Errorf("%s: traced pass failed: %s", w.name, s.Failure)
	}
	in.traced = s
	text, err := exec.Command("go", "tool", "pprof", "-traces", prof).Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if in.stacks, err = parseTraces(string(text)); err != nil {
		return nil, nil, err
	}
	if w.sharded {
		// The run's digest check doubles as the shard-invariance check:
		// this pass must reproduce the default-worker result exactly.
		if in.oneWorker, err = runPass(bin, w, passOpts{seed: base.Seed, workers: 1}); err != nil {
			return nil, nil, err
		}
		if !base.count(in.oneWorker) {
			return nil, nil, fmt.Errorf("%s: one-worker pass failed: %s", w.name, in.oneWorker.Failure)
		}
	}
	var probeSpans []span
	if in.probes, probeSpans, err = runProbeChild(bin); err != nil {
		return nil, nil, err
	}

	rep := s.report
	events := []traceEvent{{Name: "setup", Ph: "X", TS: float64(s.startNS) / 1e3, Dur: float64(rep.SetupEndNS-s.startNS) / 1e3}}
	events = appendSpans(events, rep.Spans)
	events = appendSpans(events, probeSpans)
	return layerMetrics(in), events, nil
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	traced    *passSample   // the traced pass
	oneWorker *passSample   // the pass at ShardWorkers=1 (nil unless sharded)
	stacks    []stackSample // the traced pass's serve-phase CPU profile
	probes    map[string]float64
	// serveS and wallS are the medians of the untraced passes.
	serveS, wallS float64
}

// layerMetrics derives the per-layer metrics from a traced run.
func layerMetrics(in layerInputs) map[string]float64 {
	s, rep := in.traced, in.traced.report
	m := map[string]float64{
		"span.setup_s":        s.SetupS,
		"span.serve_s":        rep.ServeS,
		"span.encode_s":       rep.EncodeS,
		"trace.overhead_frac": s.WallS/in.wallS - 1,
	}
	for name, self := range selfSeconds(rep.Spans) {
		if strings.HasPrefix(name, "exp.") || strings.HasPrefix(name, "graph.") || strings.HasPrefix(name, "arm.") {
			m["span."+name+"_frac"] = self / rep.ServeS
		}
	}
	for k, v := range rep.Counts {
		m[k] = v
	}
	delete(m, "ingress.completed")
	if d := rep.Counts["ingress.calls"] + rep.Counts["ingress.retries"] + rep.Counts["ingress.hedges"]; d > 0 {
		m["ingress.useful_frac"] = rep.Counts["ingress.completed"] / d
	}
	if ev := rep.Counts["sim.events"]; ev > 0 {
		m["sim.events_per_s"] = ev / in.serveS
	}
	for k, v := range profileShares(in.stacks) {
		m[k] = v
	}
	if one := in.oneWorker; one != nil {
		speedup := one.report.ServeS / in.serveS
		m["shard.speedup_1to2"] = speedup
		m["shard.serial_frac"] = 2/speedup - 1
	}
	for k, v := range in.probes {
		m[k] = v
	}
	return m
}

// selfSeconds sums, per span name, each span's duration minus the time
// its direct children cover. Spans of one pass nest properly.
func selfSeconds(list []span) map[string]float64 {
	sorted := append([]span(nil), list...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End > sorted[j].End
	})
	self := make([]int64, len(sorted))
	var open []int // indices of enclosing spans
	for i, s := range sorted {
		self[i] = s.End - s.Start
		for len(open) > 0 && sorted[open[len(open)-1]].End <= s.Start {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			self[open[len(open)-1]] -= s.End - s.Start
		}
		open = append(open, i)
	}
	out := map[string]float64{}
	for i, s := range sorted {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// traceEvent is one Chrome trace-event record ("X" = complete event),
// timestamps in microseconds.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func appendSpans(events []traceEvent, list []span) []traceEvent {
	for _, s := range list {
		events = append(events, traceEvent{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3})
	}
	return events
}

// stackSample is one distinct stack of a CPU profile, leaf first, with
// the CPU seconds sampled on it.
type stackSample struct {
	frames  []string
	seconds float64
}

// parseTraces reads the output of `go tool pprof -traces`: a header,
// then blocks separated by dashed lines, each an optional set of
// "key:  value" label lines and a stack whose first line carries the
// sampled time ("      10ms   runtime.futex").
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	inBlocks := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBlocks, cur = true, nil
			continue
		case !inBlocks || len(line) < 14 || line[10] == ':':
			continue // header or label line
		}
		value, frame := strings.TrimSpace(line[:10]), strings.TrimSpace(line[10:])
		if value != "" {
			secs, err := parseSampleTime(value)
			if err != nil {
				return nil, err
			}
			out = append(out, stackSample{seconds: secs})
			cur = &out[len(out)-1]
		}
		if cur == nil {
			return nil, fmt.Errorf("pprof -traces: frame %q before any sample value", frame)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(frame, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	return out, nil
}

// parseSampleTime parses pprof's scaled durations: 10ms, 1.50s, 2mins.
func parseSampleTime(v string) (float64, error) {
	i := strings.IndexFunc(v, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("pprof -traces: bad sample value %q", v)
	}
	n, err := strconv.ParseFloat(v[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("pprof -traces: bad sample value %q", v)
	}
	scale := map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "min": 60, "mins": 60, "hr": 3600, "hrs": 3600}[v[i:]]
	if scale == 0 {
		return 0, fmt.Errorf("pprof -traces: unknown unit in %q", v)
	}
	return n * scale, nil
}

const repoPrefix = "xcontainers/"

// moduleOf names the repository module a frame belongs to ("cluster"
// for xcontainers/internal/cluster.(*shardRun).barrier, "xc" for the
// façade), or "" for runtime, standard-library and benchmark frames.
func moduleOf(frame string) string {
	if !strings.HasPrefix(frame, repoPrefix) {
		return ""
	}
	pkg := frame[len(repoPrefix):]
	pkg = strings.TrimPrefix(pkg, "internal/")
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "cmd" {
		return ""
	}
	return pkg
}

// profileShares folds a CPU profile into per-layer shares of its
// samples. Each sample's self time goes to the nearest repository
// frame from the leaf, so runtime and standard-library work is charged
// to the layer that asked for it; samples with no repository frame,
// such as GC workers, are prof.runtime_frac. The cumulative shares
// count a sample once if the named function is anywhere on its stack,
// and prof.alloc_gc_frac reads the unfolded stack.
func profileShares(stacks []stackSample) map[string]float64 {
	var total float64
	m := map[string]float64{}
	cum := []struct {
		metric string
		match  func(string) bool
	}{
		{"prof.cluster.barrier_frac", func(f string) bool { return strings.HasSuffix(f, "cluster.(*shardRun).barrier") }},
		{"prof.cluster.admit_frac", func(f string) bool { return strings.HasSuffix(f, "cluster.(*shardRun).admitNow") }},
		{"prof.cluster.control_frac", func(f string) bool { return strings.HasSuffix(f, "cluster.(*Cluster).controlStep") }},
		{"prof.mem.frame_alloc_frac", func(f string) bool { return strings.Contains(f, "mem.(*FrameAllocator).") }},
		{"prof.alloc_gc_frac", func(f string) bool { return f == "runtime.mallocgc" || f == "runtime.gcBgMarkWorker" }},
	}
	for _, st := range stacks {
		total += st.seconds
		self := "runtime"
		for _, f := range st.frames {
			if mod := moduleOf(f); mod != "" {
				self = mod + ".self"
				if mod == "cluster" && isFleetIngress(f) {
					m["prof.cluster.fleet_ingress_frac"] += st.seconds
				}
				break
			}
		}
		m["prof."+self+"_frac"] += st.seconds
		for _, c := range cum {
			for _, f := range st.frames {
				if c.match(f) {
					m[c.metric] += st.seconds
					break
				}
			}
		}
	}
	for k := range m {
		m[k] /= total
	}
	return m
}

// isFleetIngress reports whether a cluster frame is the sharded
// engine's flyweight ingress: fleetIngress methods and fi* helpers.
func isFleetIngress(frame string) bool {
	name := frame[strings.Index(frame, "cluster.")+len("cluster."):]
	name = strings.TrimPrefix(name, "(*")
	return strings.HasPrefix(name, "fleetIngress") ||
		len(name) > 2 && strings.HasPrefix(name, "fi") && name[2] >= 'A' && name[2] <= 'Z'
}

// Probe settings: each of the three bench.KernelPerf calls gives every
// probe a 100 ms budget, and the metrics are the medians of the calls.
const (
	probeCalls  = 3
	probeBudget = 100 * time.Millisecond
)

// probeOutput is what the "probes" child prints.
type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// runProbes is the "probes" subcommand: it calls bench.KernelPerf
// probeCalls times and prints each probe's median ns and allocations
// per event.
func runProbes(stdout io.Writer) error {
	sp := &spans{}
	per := map[string][2][]float64{}
	var order []string
	for i := 0; i < probeCalls; i++ {
		var res []bench.PerfResult
		_ = sp.do("bench.KernelPerf", func() error {
			res = bench.KernelPerf(probeBudget)
			return nil
		})
		for _, r := range res {
			if r.Events == 0 {
				return fmt.Errorf("probe %s dispatched no events", r.Name)
			}
			v, seen := per[r.Name]
			if !seen {
				order = append(order, r.Name)
			}
			per[r.Name] = [2][]float64{append(v[0], r.NsPerEvent), append(v[1], r.AllocsPerEvent)}
		}
	}
	out := probeOutput{Metrics: map[string]float64{}, Spans: sp.list}
	for _, name := range order {
		_, ns, _ := quantiles(per[name][0])
		_, allocs, _ := quantiles(per[name][1])
		out.Metrics["probe."+name+".ns_per_event"] = ns
		out.Metrics["probe."+name+".allocs_per_event"] = allocs
	}
	return json.NewEncoder(stdout).Encode(out)
}

func runProbeChild(bin string) (map[string]float64, []span, error) {
	cmd := exec.Command(bin, "probes")
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	var out probeOutput
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	return out.Metrics, out.Spans, nil
}
