package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// epoch anchors unixNow to the monotonic clock, so spans and the
// set-up instant are immune to wall-clock steps but still comparable
// with the parent's time.Now().
var epoch = time.Now()

func unixNow() int64 { return epoch.UnixNano() + int64(time.Since(epoch)) }

// span is one named interval in unix nanoseconds.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spans records the calls a traced pass makes into each layer. A nil
// *spans records nothing, which is how untraced passes run.
type spans struct{ list []span }

func (s *spans) do(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	start := unixNow()
	err := fn()
	s.list = append(s.list, span{name, start, unixNow()})
	return err
}

// passReport is what a child process prints for its parent: the
// instant set-up ended, the timed phases, the result digest, failed
// semantic checks, deterministic counts and, when traced, its spans.
type passReport struct {
	SetupEndNS int64              `json:"setup_end_ns"`
	ServeS     float64            `json:"serve_s"`
	EncodeS    float64            `json:"encode_s"`
	Digest     string             `json:"digest,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// runChild is the "pass" subcommand: one pass of one workload in this
// fresh process. With -profile it also records spans and a CPU profile
// of the serve phase.
func runChild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xcperf pass", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "shard workers (0 = engine default)")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	profile := fs.String("profile", "", "record spans and write a serve-phase CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	var sp *spans
	if *profile != "" {
		sp = &spans{}
	}
	serve, err := w.setup(sp, *seed, *workers)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep := passReport{SetupEndNS: unixNow()}
	if *setupOnly {
		return json.NewEncoder(stdout).Encode(rep)
	}

	var stopProfile func() error
	if *profile != "" {
		if stopProfile, err = startProfile(*profile); err != nil {
			return err
		}
	}
	var out *outcome
	if err := sp.do("serve", func() (err error) {
		out, err = serve(sp)
		return err
	}); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rep.ServeS = float64(unixNow()-rep.SetupEndNS) / 1e9
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return err
		}
	}
	encodeStart := unixNow()
	if err := sp.do("encode", func() error {
		blob, err := json.Marshal(out.result)
		sum := sha256.Sum256(blob)
		rep.Digest = hex.EncodeToString(sum[:])
		return err
	}); err != nil {
		return fmt.Errorf("%s: encoding the result: %w", w.name, err)
	}
	rep.EncodeS = float64(unixNow()-encodeStart) / 1e9
	rep.Problems, rep.Counts = out.problems, out.counts
	if sp != nil {
		rep.Spans = sp.list
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// passOpts selects how a pass child runs.
type passOpts struct {
	seed      uint64
	workers   int
	setupOnly bool
	profile   string
}

// passSample is one pass as the parent measured it.
type passSample struct {
	WallS, CPUS, SetupS, PeakRSSMB float64
	// Failure is why the pass counts as failed ("" = it passed).
	Failure string
	report  *passReport   // nil when the child crashed
	startNS int64         // unix ns just before cmd.Start
	elapsed time.Duration // from cmd.Start to the child's exit
}

// runPass runs one pass child and measures it from outside: set-up
// from cmd.Start to the child's first serve call, CPU time and peak
// RSS from the child's rusage. A child that crashes or prints no
// report is a failed pass, not an error; an error means the child
// could not be started at all.
func runPass(bin string, w *workload, o passOpts) (*passSample, error) {
	args := []string{"pass", "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-workers", strconv.Itoa(o.workers)}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	if o.profile != "" {
		args = append(args, "-profile", o.profile)
	}
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting a %s pass: %w", w.name, err)
	}
	werr := cmd.Wait()
	s := &passSample{startNS: start.UnixNano(), elapsed: time.Since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPUS = seconds(ru.Utime) + seconds(ru.Stime)
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if werr != nil {
		s.Failure = fmt.Sprintf("child: %v", werr)
		return s, nil
	}
	rep := &passReport{}
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		s.Failure = fmt.Sprintf("child report: %v", err)
		return s, nil
	}
	s.report = rep
	s.SetupS = float64(rep.SetupEndNS-start.UnixNano()) / 1e9
	s.WallS = rep.ServeS + rep.EncodeS
	return s, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// pins maps workload → seed → the sha256 of the workload's canonical
// JSON result at that seed.
type pins map[string]map[string]string

//go:embed testdata/digests.json
var pinnedDigests []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedDigests, &p); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return p, nil
}

// pin returns the pinned digest of workload at seed, if there is one.
func (p pins) pin(workload string, seed uint64) (string, bool) {
	d, ok := p[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
