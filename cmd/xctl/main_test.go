package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"xcontainers/xc"
)

// TestClusterJSONOutput is the acceptance check for `xctl -cluster
// -json`: stdout must be one valid xc.ClusterReport document, and a
// fixed seed must reproduce it byte for byte.
func TestClusterJSONOutput(t *testing.T) {
	args := []string{"-cluster", "-runtime", "xcontainer", "-app", "memcached",
		"-nodes", "1", "-max-nodes", "3", "-policy", "binpack",
		"-slo", "0.5", "-rate", "1500000", "-duration", "0.5", "-seed", "7", "-json"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var rep xc.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a valid xc.ClusterReport document: %v\n%s", err, out.Bytes())
	}
	if rep.App != "memcached" || rep.Kind != "xcontainer" || rep.Policy != "binpack" {
		t.Errorf("report identity = %q/%q/%q", rep.App, rep.Kind, rep.Policy)
	}
	if rep.SLOBreaches == 0 || len(rep.Migrations) == 0 {
		t.Errorf("SLO-breach scenario recorded %d breaches, %d migrations; want both > 0",
			rep.SLOBreaches, len(rep.Migrations))
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Error("fixed-seed cluster runs must be byte-identical")
	}
}

// TestClusterHumanOutput covers the default rendering.
func TestClusterHumanOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-cluster", "-runtime", "docker", "-app", "Redis",
		"-nodes", "2", "-policy", "spread", "-rate", "40000", "-duration", "0.2", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster:", "policy spread", "served:", "latency:", "node 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSurfaces(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"surfaces"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"boundary", "TCB"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("surfaces output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDemo(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"demo"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xctl create worker", "xctl migrate worker host-b", "xctl destroy worker"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("demo output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadInputs(t *testing.T) {
	if err := run([]string{"reboot"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"-cluster", "-runtime", "runc"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown runtime accepted")
	}
	if err := run([]string{"-cluster", "-policy", "chaos"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-cluster", "-app", "no-such-app"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-cluster", "surfaces"}, &bytes.Buffer{}); err == nil {
		t.Error("-cluster with a positional command accepted")
	}
}

// TestClusterSweep drives -sweep-rates end to end: points in rate
// order, seeds replicated, JSON parseable as a SweepReport.
func TestClusterSweep(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-cluster", "-nodes", "2", "-sweep-rates", "200000,400000",
		"-seeds", "2", "-duration", "0.05", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep xc.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("cluster sweep -json is not a SweepReport: %v\n%s", err, out.Bytes())
	}
	if rep.Mode != "cluster" || len(rep.Points) != 2 {
		t.Fatalf("mode %q with %d points, want cluster/2", rep.Mode, len(rep.Points))
	}
	if rep.Points[0].Rate != 200000 || rep.Points[1].Rate != 400000 {
		t.Errorf("points out of rate order: %+v", rep.Points)
	}
	for _, p := range rep.Points {
		if p.Runs != 2 || p.Policy == "" {
			t.Errorf("point %q: runs=%d policy=%q, want 2 runs with a policy", p.Label, p.Runs, p.Policy)
		}
	}
}

// TestClusterSweepDeterministicAcrossWorkers replays the same sweep at
// GOMAXPROCS 1 and 4, which size its worker pool, and requires
// identical bytes.
func TestClusterSweepDeterministicAcrossWorkers(t *testing.T) {
	args := []string{"-cluster", "-nodes", "2", "-sweep-rates", "300000",
		"-seeds", "3", "-duration", "0.05", "-json"}
	var a, b bytes.Buffer
	setGOMAXPROCS(t, 1)
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 4)
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("cluster sweep output depends on GOMAXPROCS")
	}
}

// setGOMAXPROCS sets GOMAXPROCS, which sizes every worker pool, for the
// rest of the test and restores the old value when it ends.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestClusterSweepBadInputs rejects malformed sweep flags.
func TestClusterSweepBadInputs(t *testing.T) {
	if err := run([]string{"-cluster", "-sweep-rates", "x"}, &bytes.Buffer{}); err == nil {
		t.Error("non-numeric -sweep-rates accepted")
	}
	if err := run([]string{"-cluster", "-sweep-rates", "1000", "-seeds", "0"}, &bytes.Buffer{}); err == nil {
		t.Error("zero -seeds accepted")
	}
}

// TestClusterIngressFlags drives -ingress-policy end to end: the JSON
// report grows per-route and per-service sections, the robustness
// knobs reach the route policy, and fixed-seed runs stay
// byte-identical.
func TestClusterIngressFlags(t *testing.T) {
	args := []string{"-cluster", "-runtime", "xcontainer", "-app", "nginx",
		"-nodes", "2", "-replicas", "3", "-policy", "spread",
		"-ingress-policy", "p2c", "-keepalive", "100",
		"-timeout-us", "800", "-retries", "2", "-hedge-p", "0.99",
		"-rate", "600000", "-duration", "0.3", "-seed", "5", "-json"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var rep xc.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a valid xc.ClusterReport document: %v\n%s", err, out.Bytes())
	}
	if len(rep.Routes) == 0 || len(rep.IngressServices) == 0 {
		t.Fatalf("report missing ingress sections: %d routes, %d services",
			len(rep.Routes), len(rep.IngressServices))
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Error("fixed-seed ingress runs must be byte-identical")
	}

	// Human rendering shows the route table.
	var human bytes.Buffer
	if err := run(args[:len(args)-1], &human); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"route client->ingress:", "route ingress->fleet:", "service fleet:"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human output missing %q:\n%s", want, human.String())
		}
	}

	if err := run([]string{"-cluster", "-ingress-policy", "chaos"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown ingress policy accepted")
	}
}

// TestClusterShardFlags: -shards selects the epoch-sharded engine, and
// the JSON document is byte-identical for any shard count and any
// GOMAXPROCS (0 below keeps the host's).
func TestClusterShardFlags(t *testing.T) {
	base := []string{"-cluster", "-runtime", "xcontainer", "-app", "memcached",
		"-nodes", "1", "-max-nodes", "3", "-policy", "binpack",
		"-slo", "0.5", "-fail-node", "0.2", "-rate", "1200000",
		"-duration", "0.4", "-seed", "7", "-json"}
	var want string
	for _, c := range []struct {
		shards string
		gmp    int
	}{{"1", 0}, {"8", 0}, {"8", 1}, {"8", 4}} {
		if c.gmp > 0 {
			setGOMAXPROCS(t, c.gmp)
		}
		var out bytes.Buffer
		if err := run(append(append([]string{}, base...), "-shards", c.shards), &out); err != nil {
			t.Fatal(err)
		}
		var rep xc.ClusterReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("%+v: stdout is not a valid report: %v", c, err)
		}
		if want == "" {
			want = out.String()
			continue
		}
		if out.String() != want {
			t.Errorf("-shards %s at GOMAXPROCS %d diverged from -shards 1", c.shards, runtime.GOMAXPROCS(0))
		}
	}
}

// TestClusterEpochFlag: -epoch-us is a model parameter — different
// barrier periods legitimately produce different reports.
func TestClusterEpochFlag(t *testing.T) {
	base := []string{"-cluster", "-nodes", "2", "-rate", "900000",
		"-duration", "0.3", "-seed", "5", "-shards", "2", "-json"}
	runWith := func(us string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(append([]string{}, base...), "-epoch-us", us), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if runWith("100") == runWith("5000") {
		t.Error("-epoch-us 100 and 5000 produced identical reports")
	}
}

// TestClusterObserveFlags drives -trace/-metrics-out end to end: the
// trace file is valid Chrome trace-event JSON, the CSV has the
// documented header plus data rows, and the JSON report grows a
// time_series section — which stays absent without the flags.
func TestClusterObserveFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/trace.json"
	csvPath := dir + "/ts.csv"
	args := []string{"-cluster", "-runtime", "xcontainer", "-app", "memcached",
		"-nodes", "2", "-replicas", "4", "-policy", "spread",
		"-rate", "900000", "-duration", "0.2", "-seed", "7", "-shards", "2", "-json",
		"-trace", tracePath, "-metrics-out", csvPath, "-metrics-window-us", "500"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var rep xc.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a valid xc.ClusterReport document: %v\n%s", err, out.Bytes())
	}
	if rep.TimeSeries == nil || len(rep.TimeSeries.Windows) == 0 {
		t.Fatal("observed run has no time_series section")
	}
	if rep.TimeSeries.WindowUS != 500 {
		t.Errorf("window = %v us, want 500", rep.TimeSeries.WindowUS)
	}

	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(blob, &events); err != nil {
		t.Fatalf("-trace output is not valid trace-event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("-trace output has no events")
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("-metrics-out produced %d lines, want header plus rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "start_us,arrived,served,") {
		t.Errorf("CSV header = %q", lines[0])
	}

	// Without the flags the report must not mention the section at all.
	var plain bytes.Buffer
	if err := run(args[:len(args)-6], &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "time_series") {
		t.Error("unobserved report contains a time_series section")
	}

	if err := run([]string{"-cluster", "-sweep-rates", "1000", "-trace", tracePath}, &bytes.Buffer{}); err == nil {
		t.Error("-trace with -sweep-rates accepted")
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files around any command.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pb.gz", dir+"/mem.pb.gz"
	args := []string{"-cpuprofile", cpu, "-memprofile", mem,
		"-cluster", "-nodes", "1", "-rate", "400000", "-duration", "0.1", "-json"}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestClusterShardBadInputs pins flag validation through the CLI.
func TestClusterShardBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-cluster", "-shards", "-2"}, &out); err == nil {
		t.Error("negative -shards accepted")
	}
	if err := run([]string{"-cluster", "-shards", "2", "-epoch-us", "-1"}, &out); err == nil {
		t.Error("negative -epoch-us accepted")
	}
}
