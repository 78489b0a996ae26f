package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xcontainers/internal/bench"
	"xcontainers/xc"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig8", "fig9"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %q:\n%s", want, out.String())
		}
	}
}

// TestJSONOutput is the acceptance check for `xcbench -exp ... -json`:
// stdout must be one valid JSON array of bench.Report documents.
func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1,fig9", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var reports []*bench.Report
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("stdout is not a JSON array of reports: %v\n%s", err, out.Bytes())
	}
	if len(reports) != 2 || reports[0].ID != "table1" || reports[1].ID != "fig9" {
		t.Errorf("reports = %+v, want table1 then fig9", reports)
	}
}

func TestHumanAndMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig9"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Load balancer") {
		t.Errorf("fig9 text output missing title:\n%s", out.String())
	}
	var md bytes.Buffer
	if err := run([]string{"-exp", "fig9", "-markdown"}, &md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "|") {
		t.Errorf("markdown output has no table:\n%s", md.String())
	}
}

// TestVCPUsDeterministic pins the deterministic-SMP CLI contract: the
// -vcpus flag (host workers executing vCPU lanes in parallel) changes
// wall-clock speed only — `-exp smp -json` output is byte-identical
// for -vcpus 1 vs -vcpus 4, at GOMAXPROCS 1 and at the host's real
// parallelism, and the worker count never leaks into the JSON.
func TestVCPUsDeterministic(t *testing.T) {
	smpJSON := func(vcpus int) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-exp", "smp", "-json", "-vcpus", strconv.Itoa(vcpus)}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	base := smpJSON(1)
	if strings.Contains(base, "vcpus") {
		t.Errorf("-vcpus leaked into the JSON report:\n%s", base)
	}
	var reports []*bench.Report
	if err := json.Unmarshal([]byte(base), &reports); err != nil {
		t.Fatalf("smp -json is not a report array: %v\n%s", err, base)
	}
	for _, gmp := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, vcpus := range []int{1, 4} {
			if got := smpJSON(vcpus); got != base {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d -vcpus %d diverged from -vcpus 1:\n got %s\nwant %s", gmp, vcpus, got, base)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSweepParallelismInvariant pins the other half of that contract
// for the whole sweep: the §5 experiments run their cells on a worker
// pool as wide as GOMAXPROCS, and `xcbench -json` must be
// byte-identical at GOMAXPROCS 1 (every cell inline, in order) and 2.
func TestSweepParallelismInvariant(t *testing.T) {
	sweep := func(gmp int) string {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
		var out bytes.Buffer
		if err := run([]string{"-json"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if one, two := sweep(1), sweep(2); one != two {
		t.Fatal("xcbench -json at GOMAXPROCS 2 diverged from GOMAXPROCS 1")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// A bad ID in a list still runs the good ones before erroring.
	out.Reset()
	err := run([]string{"-exp", "fig9,fig99"}, &out)
	if err == nil {
		t.Fatal("unknown experiment in list accepted")
	}
	if !strings.Contains(out.String(), "Load balancer") {
		t.Errorf("good experiment skipped when a later one is unknown:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestSweepOutput drives the parallel sweep mode end to end and checks
// that -json yields a machine-readable SweepReport in point order.
func TestSweepOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "100000,200000", "-seeds", "2", "-duration", "0.02"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"rate 100000/s", "rate 200000/s", "p99 us"} {
		if !strings.Contains(text, want) {
			t.Errorf("sweep table missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"-sweep", "100000", "-seeds", "2", "-duration", "0.02", "-parallel", "2", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep xc.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("sweep -json is not a SweepReport: %v\n%s", err, out.Bytes())
	}
	if len(rep.Points) != 1 || rep.Points[0].Runs != 2 || rep.Mode != "platform" {
		t.Errorf("sweep report = %+v, want 1 point × 2 runs", rep)
	}
}

// TestSweepBadInputs rejects malformed sweep flags.
func TestSweepBadInputs(t *testing.T) {
	if err := run([]string{"-sweep", "abc"}, &bytes.Buffer{}); err == nil {
		t.Error("non-numeric sweep rate accepted")
	}
	if err := run([]string{"-sweep", "1000", "-seeds", "0"}, &bytes.Buffer{}); err == nil {
		t.Error("zero seeds accepted")
	}
	if err := run([]string{"-sweep", "1000", "-runtime", "no-such-runtime"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown runtime accepted")
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile produce non-empty
// pprof files around a run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig9", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
