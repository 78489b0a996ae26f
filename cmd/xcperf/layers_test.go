package main

import (
	"math"
	"os"
	"testing"
)

func TestProfileSharesFromFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 5 || len(stacks[0].frames) != 11 || stacks[0].frames[0] != "xcontainers/internal/sim.(*Queue).Arrive" {
		t.Fatalf("parsed %d stacks, first %+v", len(stacks), stacks[0])
	}
	got := profileShares(stacks)
	want := map[string]float64{
		"prof.sim.self_frac":              0.4, // leaf frame is in sim
		"prof.cluster.self_frac":          0.4, // slices and memmove fold into the barrier
		"prof.mem.self_frac":              0.1, // mallocgc folds into FrameAllocator.Alloc
		"prof.runtime_frac":               0.1, // the GC worker has no repository frame
		"prof.cluster.barrier_frac":       0.8,
		"prof.cluster.admit_frac":         0.4,
		"prof.cluster.fleet_ingress_frac": 0.1,
		"prof.mem.frame_alloc_frac":       0.1,
		"prof.alloc_gc_frac":              0.2,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected share %s = %v", k, got[k])
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"",
		"File: x\n-----------+---\n      ten   main.main\n",
		"-----------+---\n             main.main\n",
	} {
		if _, err := parseTraces(text); err == nil {
			t.Errorf("parseTraces(%q) succeeded", text)
		}
	}
	for v, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "2mins": 120, "250us": 250e-6} {
		if got, err := parseSampleTime(v); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSampleTime(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	// serve [0,10] holds exp.a [1,4] (which holds cluster.Run [2,3])
	// and exp.b [5,9]; exp.a runs twice.
	got := selfSeconds([]span{
		{"cluster.Run", 2e9, 3e9},
		{"exp.a", 1e9, 4e9},
		{"exp.b", 5e9, 9e9},
		{"serve", 0, 10e9},
		{"exp.a", 10e9, 11e9},
	})
	want := map[string]float64{"serve": 3, "exp.a": 3, "exp.b": 4, "cluster.Run": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestFleetIngressFrames(t *testing.T) {
	for frame, want := range map[string]bool{
		"xcontainers/internal/cluster.(*fleetIngress).issueTo": true,
		"xcontainers/internal/cluster.fiEncode":                true,
		"xcontainers/internal/cluster.(*fiEdge).stats":         true,
		"xcontainers/internal/cluster.(*shardRun).barrier":     false,
		"xcontainers/internal/cluster.finish":                  false,
	} {
		if got := isFleetIngress(frame); got != want {
			t.Errorf("isFleetIngress(%s) = %v", frame, got)
		}
	}
}
