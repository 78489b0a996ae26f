// Command xcperf is the repository's benchmark: it times what a user of
// the simulator waits for — host wall time to finish a fixed simulation
// — on five workloads, and attributes that time to the repository's
// layers in a separate traced run.
//
// Every pass of a workload runs in a fresh child process, so set-up
// cost, CPU time and peak RSS are per pass, and one pass runs at a
// time. Each pass checks its result: semantic checks always, and the
// sha256 of the canonical JSON result against testdata/digests.json
// for seeds that have a pin.
//
// Usage, from the repository root (bench.sh builds xcperf inside the
// checkout and runs it there):
//
//	bash cmd/xcperf/bench.sh [-seed N] [-reps 5] [-workloads a,b] [-out r.json] [-trace]
//	bash cmd/xcperf/bench.sh -compare base.json head.json
//	bash cmd/xcperf/bench.sh --workload W --seed N --seconds S --trace 0|1
//
// The first form interleaves -reps passes across the workloads, prints
// every metric as "workload metric median unit [q1 q3 n]" and writes
// the same data, with the machine it ran on, to -out. -trace adds the
// per-layer run and writes its spans as Chrome trace JSON next to -out.
// The second prints one verdict per (workload, end-to-end metric) by
// the bounds in BENCHMARK.json. The third runs one workload for about
// S seconds and prints its result as one JSON line: the end-to-end
// metrics, or with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xcperf:", err)
		os.Exit(1)
	}
}

// A timed run of one workload (--workload) starts with set-up-only
// children: at least minSetups, and up to maxSetups while they have
// taken less than setupBudget, so setup_s is a median of many samples
// even where set-up takes a millisecond. It then makes at least
// minPasses passes.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = time.Second
	minPasses   = 2
)

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "pass":
			return runChild(args[1:], stdout)
		case "probes":
			return runProbes(stdout)
		}
	}
	fs := flag.NewFlagSet("xcperf", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of every workload's inputs")
	reps := fs.Int("reps", 5, "passes per workload")
	names := fs.String("workloads", workloadNames(), "comma-separated workloads")
	out := fs.String("out", "xcperf.json", "results file")
	trace := fs.Bool("trace", false, "add the per-layer run")
	compare := fs.Bool("compare", false, "compare two results files: -compare base.json head.json")
	one := fs.String("workload", "", "run this one workload for -seconds and print one JSON line")
	secs := fs.Float64("seconds", 22, "with -workload: keep starting passes for about this long")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	bin, err := os.Executable()
	if err != nil {
		return err
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	// Profiles go under the checkout's build directory, removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "xcperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if *one != "" {
		w, err := lookupWorkload(*one)
		if err != nil {
			return err
		}
		return single(stdout, spec, bin, w, p, *seed, *secs, *trace, dir)
	}
	var ws []*workload
	for _, name := range strings.Split(*names, ",") {
		w, err := lookupWorkload(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	return harness(stdout, spec, bin, ws, p, *seed, *reps, *trace, *out, dir)
}

// joinTraceValue rewrites "--trace 0|1", as the single-workload form
// is called, to "-trace=0|1": a boolean flag takes its value attached.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a = "-trace=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// workloadResult is one workload's passes, judged and aggregated.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Pin is match or mismatch against the pinned digest for Seed, or
	// unpinned when Seed has none and only the semantic checks apply.
	Pin          string             `json:"pin"`
	Digest       string             `json:"digest,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	PassFailFrac float64            `json:"pass_fail_frac"`
	Failures     []string           `json:"failures,omitempty"`
	Metrics      map[string]*series `json:"metrics"`
	Layers       map[string]float64 `json:"layers,omitempty"`

	want   string        // pinned digest ("" = unpinned)
	passes []*passSample // timed passes
	setups []float64
}

func newWorkloadResult(w string, seed uint64, p pins) *workloadResult {
	r := &workloadResult{Workload: w, Seed: seed, Pin: "unpinned"}
	if d, ok := p.pin(w, seed); ok {
		r.want, r.Pin = d, "match"
	}
	return r
}

// count judges one pass into the failure count and reports whether it
// passed. A pass fails when its child crashed, a semantic check
// failed, or its digest differs from the pin or, for an unpinned seed,
// from the run's first digest.
func (r *workloadResult) count(s *passSample) bool {
	if s.Failure == "" {
		rep := s.report
		switch {
		case len(rep.Problems) > 0:
			s.Failure = "check: " + strings.Join(rep.Problems, "; ")
		case r.want != "" && rep.Digest != r.want:
			r.Pin = "mismatch"
			s.Failure = fmt.Sprintf("digest %s differs from the pin %s", rep.Digest, r.want)
		case r.Digest == "":
			r.Digest = rep.Digest
		case rep.Digest != r.Digest:
			s.Failure = fmt.Sprintf("digest %s differs from the run's %s", rep.Digest, r.Digest)
		}
	}
	r.Attempted++
	if s.Failure != "" {
		r.Failed++
		r.Failures = append(r.Failures, s.Failure)
		fmt.Fprintf(os.Stderr, "xcperf: %s pass failed: %s\n", r.Workload, s.Failure)
	}
	r.PassFailFrac = float64(r.Failed) / float64(r.Attempted)
	return s.Failure == ""
}

// add judges a timed pass and keeps its measurements. Failed passes
// that still ran to the end are measured too; crashed ones are not.
func (r *workloadResult) add(s *passSample) {
	r.count(s)
	if s.report != nil {
		r.passes = append(r.passes, s)
		r.setups = append(r.setups, s.SetupS)
	}
}

// median is the median of f over the measured timed passes.
func (r *workloadResult) median(f func(*passSample) float64) float64 {
	xs := make([]float64, len(r.passes))
	for i, s := range r.passes {
		xs[i] = f(s)
	}
	_, m, _ := quantiles(xs)
	return m
}

// finish aggregates the end-to-end metrics. Their units are the ones
// BENCHMARK.json declares.
func (r *workloadResult) finish() error {
	if len(r.passes) == 0 {
		return fmt.Errorf("%s: no pass ran to the end: %s", r.Workload, strings.Join(r.Failures, "; "))
	}
	var wall, cpu, rss []float64
	for _, s := range r.passes {
		wall, cpu, rss = append(wall, s.WallS), append(cpu, s.CPUS), append(rss, s.PeakRSSMB)
	}
	r.Metrics = map[string]*series{
		"wall_s":      newSeries("s", wall),
		"cpu_s":       newSeries("s", cpu),
		"setup_s":     newSeries("s", r.setups),
		"peak_rss_mb": newSeries("MB", rss),
	}
	return nil
}

// single is the single-workload form: one workload, timed for about
// seconds (or traced), printed as one JSON line.
func single(stdout io.Writer, spec *benchSpec, bin string, w *workload, p pins, seed uint64, seconds float64, traced bool, dir string) error {
	r := newWorkloadResult(w.name, seed, p)
	if !traced {
		begin := time.Now()
		for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
			s, err := runPass(bin, w, passOpts{seed: seed, setupOnly: true})
			if err != nil {
				return err
			}
			if s.report == nil {
				return fmt.Errorf("%s set-up failed: %s", w.name, s.Failure)
			}
			r.setups = append(r.setups, s.SetupS)
		}
	}
	// Start passes until the next one would most likely end more than
	// half a pass past the deadline. A traced run needs one untraced
	// pass, the base of trace.overhead_frac.
	start := time.Now()
	for {
		s, err := runPass(bin, w, passOpts{seed: seed})
		if err != nil {
			return err
		}
		r.add(s)
		elapsed := time.Since(start).Seconds()
		half := r.median(func(s *passSample) float64 { return s.elapsed.Seconds() }) / 2
		enough := len(r.passes) >= minPasses && elapsed+half >= seconds
		if traced || enough || r.Attempted >= minPasses && elapsed >= seconds {
			break
		}
	}
	if err := r.finish(); err != nil {
		return err
	}
	declared := spec.EndToEnd
	values := map[string]float64{}
	for name, s := range r.Metrics {
		values[name] = s.Median
	}
	if traced {
		layers, _, err := layerRun(bin, w, r, dir)
		if err != nil {
			return err
		}
		r.Layers, declared, values = layers, spec.PerLayer, layers
	}
	printResult(stdout, spec, r)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for _, m := range declared {
		line.Metrics[m.Name] = metric{values[m.Name], m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(blob))
	return err
}

// results is the harness's results file.
type results struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *results) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// environment records the machine and build a results file came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified,omitempty"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Started    string `json:"started"`
}

func currentEnv(seed uint64, reps int) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Revision: "unknown",
		Seed: seed, Reps: reps, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// harness runs reps passes of every workload, interleaved so drift on
// a shared machine spreads over all of them, then the traced runs.
func harness(stdout io.Writer, spec *benchSpec, bin string, ws []*workload, p pins, seed uint64, reps int, traced bool, out, dir string) error {
	res := &results{Env: currentEnv(seed, reps)}
	for _, w := range ws {
		res.Workloads = append(res.Workloads, newWorkloadResult(w.name, seed, p))
	}
	for rep := 0; rep < reps; rep++ {
		for i, w := range ws {
			s, err := runPass(bin, w, passOpts{seed: seed})
			if err != nil {
				return err
			}
			res.Workloads[i].add(s)
		}
	}
	var events []traceEvent
	for i, w := range ws {
		r := res.Workloads[i]
		if err := r.finish(); err != nil {
			return err
		}
		if traced {
			layers, ev, err := layerRun(bin, w, r, dir)
			if err != nil {
				return err
			}
			r.Layers = layers
			events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: i + 1, Args: map[string]string{"name": w.name}})
			for _, e := range ev {
				e.PID, e.TID = i+1, 1
				events = append(events, e)
			}
		}
		printResult(stdout, spec, r)
	}
	if err := writeJSON(out, res); err != nil {
		return err
	}
	if traced {
		return writeJSON(strings.TrimSuffix(out, filepath.Ext(out))+".trace.json", map[string]any{"traceEvents": events})
	}
	return nil
}

// printResult prints the declared metrics of one workload, one per
// line: "workload metric median unit [q1 q3 n]" for end-to-end
// metrics, "workload metric value unit" for per-layer ones.
func printResult(w io.Writer, spec *benchSpec, r *workloadResult) {
	for _, m := range spec.EndToEnd {
		if s := r.Metrics[m.Name]; s != nil {
			fmt.Fprintf(w, "%-15s %-36s %14.6g %-5s [%.6g %.6g %d]\n", r.Workload, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
	}
	fmt.Fprintf(w, "%-15s %-36s %14.6g %-5s [%d of %d failed, digest %s]\n",
		r.Workload, passFailFrac, r.PassFailFrac, "ratio", r.Failed, r.Attempted, r.Pin)
	if r.Layers == nil {
		return
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
		fmt.Fprintf(w, "%-15s %-36s %14.6g %s\n", r.Workload, m.Name, r.Layers[m.Name], m.Unit)
	}
	for name := range r.Layers {
		if !declared[name] {
			fmt.Fprintf(os.Stderr, "xcperf: %s: metric %s is not declared in BENCHMARK.json\n", r.Workload, name)
		}
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &results{}
	if err := json.Unmarshal(blob, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func compareFiles(stdout io.Writer, spec *benchSpec, basePath, headPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	head, err := readResults(headPath)
	if err != nil {
		return err
	}
	for _, e := range []environment{base.Env, head.Env} {
		fmt.Fprintf(stdout, "# %s %s nproc=%d GOMAXPROCS=%d %s seed=%d reps=%d\n",
			e.Revision, e.GoVersion, e.NProc, e.GOMAXPROCS, e.CPUModel, e.Seed, e.Reps)
	}
	compareRuns(stdout, spec, base, head)
	return nil
}
