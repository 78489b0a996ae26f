package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"xcontainers/internal/bench"
	"xcontainers/internal/cluster"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
)

func pass(digest string, problems ...string) *passSample {
	return &passSample{WallS: 1, CPUS: 1, SetupS: 0.1, PeakRSSMB: 10,
		report: &passReport{Digest: digest, Problems: problems, ServeS: 1}}
}

func TestEveryWorkloadPinsSeedsOneToThree(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 3; seed++ {
			if d, ok := p.pin(w.name, seed); !ok || len(d) != 64 {
				t.Errorf("%s seed %d: pin %q", w.name, seed, d)
			}
		}
	}
}

func TestTamperedPinCountsAsFailure(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	good, _ := p.pin("planet-fleet", 1)

	r := newWorkloadResult("planet-fleet", 1, p)
	r.add(pass(good))
	if r.Failed != 0 || r.Pin != "match" {
		t.Fatalf("the true digest failed: %+v", r)
	}

	tampered := pins{"planet-fleet": {"1": strings.Repeat("0", 64)}}
	r = newWorkloadResult("planet-fleet", 1, tampered)
	r.add(pass(good))
	r.add(pass(good))
	if r.Failed != 2 || r.Attempted != 2 || r.PassFailFrac != 1 || r.Pin != "mismatch" {
		t.Errorf("a tampered pin gave %d of %d failed, frac %v, pin %s", r.Failed, r.Attempted, r.PassFailFrac, r.Pin)
	}
}

func TestUnpinnedSeedRunsChecksAndDeterminism(t *testing.T) {
	r := newWorkloadResult("canary-rollout", 42, pins{})
	if r.Pin != "unpinned" {
		t.Fatalf("pin = %s, want unpinned", r.Pin)
	}
	r.add(pass("aa"))
	r.add(pass("aa", "arm.healthy: rollout outcome rolled-back, want promoted"))
	r.add(pass("bb"))
	r.add(&passSample{Failure: "child: exit status 2"})
	if r.Attempted != 4 || r.Failed != 3 || r.PassFailFrac != 0.75 {
		t.Errorf("got %d of %d failed, frac %v: %v", r.Failed, r.Attempted, r.PassFailFrac, r.Failures)
	}
	if err := r.finish(); err != nil || r.Metrics["wall_s"].N != 3 {
		t.Errorf("finish: %v; the crashed pass must not be measured", err)
	}
}

func TestDriverTraceFlag(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "planet-fleet", "--seed", "3", "--seconds", "15", "--trace", "0"})
	want := []string{"--workload", "planet-fleet", "--seed", "3", "--seconds", "15", "-trace=0"}
	if !slices.Equal(got, want) {
		t.Errorf("joinTraceValue = %q, want %q", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-reps", "1"}); !slices.Equal(got, []string{"-trace", "-reps", "1"}) {
		t.Errorf("bare -trace rewritten: %q", got)
	}
}

// layerNamesOfAllWorkloads derives per-layer metrics from synthetic
// traced runs that carry every span, count and probe the workloads
// produce, so every name the harness can print is checked.
func layerNamesOfAllWorkloads(t *testing.T) map[string]float64 {
	var spanList []span
	add := func(name string) {
		spanList = append(spanList, span{name, int64(len(spanList)) * 10, int64(len(spanList))*10 + 5})
	}
	for _, e := range bench.Experiments() {
		add("exp." + e.ID)
	}
	for _, lb := range wikiBalancers {
		add("graph.wiki_" + lb.name)
	}
	add("graph.storm")
	for _, arm := range rolloutArms {
		add(arm.name)
	}
	counts := map[string]float64{}
	addClusterCounts(counts, 1, &cluster.Result{
		Routes: []ingress.RouteStats{{}}, IngressServices: []ingress.ServiceStats{{}},
		Chaos: &cluster.ChaosResult{}, Deploy: &cluster.DeployResult{}, TimeSeries: &obs.TimeSeries{},
	})
	for k := range counts {
		counts[k] = 1
	}
	traced := pass("aa")
	traced.report.Spans, traced.report.Counts = spanList, counts
	stacks := []stackSample{
		{frames: []string{"runtime.gcBgMarkWorker"}, seconds: 1},
		{frames: []string{
			"xcontainers/internal/cluster.(*fleetIngress).issueTo",
			"xcontainers/internal/mem.(*FrameAllocator).Alloc",
			"xcontainers/internal/cluster.(*Cluster).controlStep",
			"xcontainers/internal/cluster.(*shardRun).admitNow",
			"xcontainers/internal/cluster.(*shardRun).barrier",
		}, seconds: 1},
	}
	for _, mod := range repoModules(t) {
		stacks = append(stacks, stackSample{frames: []string{repoPrefix + "internal/" + mod + ".F"}, seconds: 1})
	}
	probes := map[string]float64{}
	for _, r := range bench.KernelPerf(time.Nanosecond) {
		probes["probe."+r.Name+".ns_per_event"] = 1
		probes["probe."+r.Name+".allocs_per_event"] = 1
	}
	return layerMetrics(layerInputs{traced: traced, oneWorker: pass("aa"), stacks: stacks, probes: probes, serveS: 1, wallS: 1})
}

// repoModules lists the repository's layers: its internal packages and
// the xc façade.
func repoModules(t *testing.T) []string {
	entries, err := os.ReadDir("../../internal")
	if err != nil {
		t.Fatal(err)
	}
	mods := []string{"xc"}
	for _, e := range entries {
		if e.IsDir() {
			mods = append(mods, e.Name())
		}
	}
	return mods
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := newWorkloadResult("planet-fleet", 1, pins{})
	r.add(pass("aa"))
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	r.Layers = layerNamesOfAllWorkloads(t)

	declared := map[string]string{passFailFrac: "ratio"}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	for name, s := range r.Metrics {
		if declared[name] != s.Unit {
			t.Errorf("end-to-end %s in %s, declared %q", name, s.Unit, declared[name])
		}
	}
	for name := range r.Layers {
		if _, ok := declared[name]; !ok {
			t.Errorf("layer metric %s is not declared in BENCHMARK.json", name)
		}
	}

	var out bytes.Buffer
	printResult(&out, spec, r)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	printed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name := strings.Fields(line)[1]
		if !valid.MatchString(name) {
			t.Errorf("printed name %q", name)
		}
		if _, ok := declared[name]; !ok {
			t.Errorf("printed %s, which BENCHMARK.json does not declare", name)
		}
		printed[name] = true
	}
	for name := range declared {
		if !printed[name] {
			t.Errorf("declared %s is never printed", name)
		}
		if _, ok := r.Layers[name]; !ok && r.Metrics[name] == nil && name != passFailFrac {
			t.Errorf("declared %s is produced by no workload", name)
		}
	}
}
