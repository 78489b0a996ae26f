package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites testdata/sweep.json. Run it ONLY to bless an
// intentional change to a §5 number.
var updateGolden = flag.Bool("update", false, "rewrite the §5 sweep golden")

// TestSweepGolden pins every byte of `xcbench -json`: all §5 tables and
// figures, the spawn-cost observation and the ablations. It also checks
// the sweep against xcperf's paper-sweep digest, which hashes the
// compact json.Marshal of the same reports; compacting the indented
// output yields exactly those bytes.
func TestSweepGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sweep.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("xcbench -json drifted from %s; a §5 number changed", path)
	}

	var compact bytes.Buffer
	if err := json.Compact(&compact, bytes.TrimSpace(out.Bytes())); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(compact.Bytes())
	got := hex.EncodeToString(sum[:])

	blob, err := os.ReadFile(filepath.Join("..", "xcperf", "testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(blob, &pins); err != nil {
		t.Fatal(err)
	}
	pin := pins["paper-sweep"]["1"]
	if pin == "" {
		t.Fatal("no paper-sweep seed-1 pin in cmd/xcperf/testdata/digests.json")
	}
	if got != pin {
		t.Errorf("sweep digest = %s, xcperf paper-sweep pin = %s", got, pin)
	}
}
