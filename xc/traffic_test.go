package xc

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// goldenServeReport pins the Serve report's JSON wire shape AND its
// values: for a fixed seed the discrete-event run is deterministic, so
// any drift here is either a schema break (bump machine consumers) or
// a simulation-kernel behavior change (re-justify the calibration).
const goldenServeReport = `{
  "app": "memcached",
  "runtime": "X-Container",
  "kind": "xcontainer",
  "cloud": "local",
  "meltdown_patched": true,
  "boot_cycles": 0,
  "run_cycles": 725000000,
  "total_cycles": 725000000,
  "virtual_seconds": 0.25,
  "instructions": 0,
  "layer_breakdown": null,
  "syscalls": {
    "raw_traps": 0,
    "function_calls": 0,
    "trapped_in_libos": 0,
    "abom_patched_sites": 0,
    "converted_fraction": 0
  },
  "throughput": {
    "syscalls_per_sec": 0,
    "requests_per_sec": 50020,
    "offered_per_sec": 50000
  },
  "latency": {
    "mean_us": 3.134966123895269,
    "p50_us": 3.1775862068965517,
    "p95_us": 3.1775862068965517,
    "p99_us": 3.3541379310344825,
    "max_us": 6.040689655172414
  },
  "queue": {
    "mean_depth": 0.1568110055172414,
    "max_depth": 4,
    "utilization": 0.07811744137931034
  },
  "traffic": {
    "arrived": 12505,
    "completed": 12505,
    "containers": 1,
    "seed": 42
  }
}`

func serveGolden(t *testing.T) *Report {
	t.Helper()
	p := MustNewPlatform(XContainer)
	rep, err := p.Serve(App("memcached"),
		Traffic().Rate(50_000).Duration(0.25).Seed(42).Cores(2))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestServeReportGolden(t *testing.T) {
	rep := serveGolden(t)
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenServeReport {
		t.Errorf("serve report drifted from golden.\ngot:\n%s\nwant:\n%s", got, goldenServeReport)
	}
}

func TestServeDeterministicAcrossRuns(t *testing.T) {
	a, err := serveGolden(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveGolden(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two runs with one seed must produce identical reports")
	}
}

func TestServeClosedLoopDefaults(t *testing.T) {
	p := MustNewPlatform(Docker)
	rep, err := p.Serve(App("Redis"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput.RequestsPerSec <= 0 {
		t.Error("closed-loop serve must report throughput")
	}
	if rep.Throughput.OfferedPerSec != 0 {
		t.Error("closed loop has no offered rate")
	}
	if rep.Traffic == nil || rep.Traffic.Connections == 0 {
		t.Errorf("closed loop must resolve a population: %+v", rep.Traffic)
	}
	if rep.Latency == nil || rep.Latency.P99US < rep.Latency.P50US {
		t.Errorf("latency stats malformed: %+v", rep.Latency)
	}
	if rep.Queue == nil || rep.Queue.Utilization < 0.99 {
		t.Errorf("saturating closed loop must pin utilization: %+v", rep.Queue)
	}
}

func TestServeMultiContainer(t *testing.T) {
	p := MustNewPlatform(XContainer)
	w := App("nginx")
	one, err := p.Serve(w, Traffic().Duration(0.1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := p.Serve(w, Traffic().Duration(0.1).Containers(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.Traffic.Containers != 4 {
		t.Errorf("containers = %d, want 4", four.Traffic.Containers)
	}
	r := four.Throughput.RequestsPerSec / one.Throughput.RequestsPerSec
	if r < 3.8 || r > 4.2 {
		t.Errorf("4 containers = %.2fx one, want ≈4x", r)
	}
}

func TestServeBurstInflatesTail(t *testing.T) {
	p := MustNewPlatform(XContainer)
	w := App("memcached")
	smooth, err := p.Serve(w, Traffic().Rate(80_000).Duration(1).Seed(5).Cores(1))
	if err != nil {
		t.Fatal(err)
	}
	burst, err := p.Serve(w, Traffic().Burst(320_000, 0.02, 0.06).Duration(1).Seed(5).Cores(1))
	if err != nil {
		t.Fatal(err)
	}
	if burst.Latency.P99US <= smooth.Latency.P99US {
		t.Errorf("bursty p99 %v must exceed smooth p99 %v",
			burst.Latency.P99US, smooth.Latency.P99US)
	}
}

func TestServeRejectsInvalidSpecs(t *testing.T) {
	p := MustNewPlatform(XContainer)
	w := App("memcached")
	bad := []*TrafficSpec{
		Traffic().Rate(-1),
		Traffic().Duration(-0.5),
		Traffic().Connections(-4),
		Traffic().Containers(-1),
		Traffic().Burst(0, 0.01, 0.01),    // no peak rate
		Traffic().Burst(1000, 0, 0.01),    // zero-length bursts
		Traffic().Burst(1000, 0.01, -0.1), // negative silence
		// Non-finite values: an infinite rate would queue one arrival a
		// cycle until memory ran out (the short horizon bounds the run
		// should the check regress), and NaN would run a closed loop.
		Traffic().Rate(math.Inf(1)).Duration(1e-6),
		Traffic().Rate(math.NaN()).Duration(1e-6),
		Traffic().Rate(1000).Duration(math.Inf(1)),
		Traffic().Rate(1000).Duration(math.NaN()),
		Traffic().Burst(math.NaN(), 0.01, 0.01).Duration(1e-6),
	}
	for i, spec := range bad {
		if _, err := p.Serve(w, spec); err == nil {
			t.Errorf("spec %d: invalid traffic accepted", i)
		}
	}
	// Invalid route policies, on an inner route and on the entry. A
	// negative timeout would time out every attempt at once, and a NaN
	// or infinite one would silently disable the timeout.
	for i, in := range badIngress() {
		inner := ServiceGraph()
		inner.Service("app", w, 2)
		inner.Service("db", w, 2)
		inner.Entry("app", Ingress())
		inner.Route("app", "db", in)
		entry := ServiceGraph()
		entry.Service("app", w, 2)
		entry.Entry("app", in)
		for _, g := range []*ServiceGraphSpec{inner, entry} {
			if _, err := p.ServeGraph(g, Traffic().Rate(1000).Duration(0.001)); err == nil {
				t.Errorf("ingress spec %d: invalid route policy accepted", i)
			}
		}
	}
}

// badIngress lists route specs every serve path must reject.
func badIngress() []*IngressSpec {
	return []*IngressSpec{
		Ingress().TimeoutMicros(-5).Retries(2),
		Ingress().TimeoutMicros(math.NaN()),
		Ingress().TimeoutMicros(math.Inf(1)),
		Ingress().TimeoutMicros(4e9), // over an hour
		Ingress().BackoffMicros(-50),
		Ingress().BackoffMicros(1e13),
		Ingress().Hedge(2),
		Ingress().Hedge(1),
		Ingress().Hedge(math.NaN()),
		Ingress().Hedge(-0.5),
		Ingress().CacheHit(math.NaN()),
		Ingress().CacheHit(1.5),
		Ingress().RetryBudget(-1),
		Ingress().RetryBudget(math.Inf(1)),
		Ingress().Breaker(1.5),
		Ingress().Breaker(math.NaN()),
	}
}

func TestServeRejectsNonAppWorkloads(t *testing.T) {
	p := MustNewPlatform(XContainer)
	if _, err := p.Serve(SyscallLoop("getpid", 100), Traffic()); err == nil {
		t.Error("serve must reject raw-program workloads")
	}
	if _, err := p.Serve(nil, Traffic()); err == nil {
		t.Error("serve must reject a nil workload")
	}
	if _, err := p.Serve(App("no-such-app"), Traffic()); err == nil {
		t.Error("serve must surface unknown-app errors")
	}
}

func TestServeReportRendersAndRoundTrips(t *testing.T) {
	rep := serveGolden(t)
	s := rep.String()
	for _, want := range []string{"served:", "latency:", "queue:", "p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("human rendering missing %q:\n%s", want, s)
		}
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Latency == nil || back.Latency.P99US != rep.Latency.P99US ||
		back.Queue == nil || back.Queue.MaxDepth != rep.Queue.MaxDepth {
		t.Errorf("round-trip lost traffic fields: %+v", back)
	}
}
