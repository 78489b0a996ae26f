package runtimes

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

func TestRunConcurrentInterleaves(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("multi", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := &cycles.Clock{}
	mk := func() *Proc {
		text := arch.NewAssembler(arch.UserTextBase).
			Loop(200, func(a *arch.Assembler) {
				a.Work(5000)
				a.SyscallN(uint32(syscalls.Getpid))
			}).Hlt().MustAssemble()
		p, err := rt.StartProcess(c, text, clk)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	procs := []*Proc{mk(), mk(), mk()}
	elapsed, err := rt.RunConcurrent(procs, cycles.FromMicros(100), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if !p.CPU.Halted {
			t.Errorf("process %d did not finish", i)
		}
		if pid := p.CPU.Regs[arch.RAX]; pid == 0 {
			t.Errorf("process %d: getpid = 0", i)
		}
	}
	// Each process has a distinct PID — separate address spaces and
	// kernel-visible identities within one container.
	pids := map[uint64]bool{}
	for _, p := range procs {
		pids[p.CPU.Regs[arch.RAX]] = true
	}
	if len(pids) != 3 {
		t.Errorf("distinct pids = %d, want 3", len(pids))
	}
	if elapsed == 0 {
		t.Error("no time consumed")
	}
	// Parallel wall-clock semantics: three identical processes on
	// three vCPUs take about one process's time, not three — elapsed
	// is the slowest lane. Each lane needs at least its own work
	// cycles; well under twice that proves the lanes overlapped
	// instead of serializing onto one timeline.
	laneFloor := cycles.Cycles(200 * 5000)
	if elapsed < laneFloor {
		t.Errorf("elapsed %v below one lane's work floor %v", elapsed, laneFloor)
	}
	if elapsed > 2*laneFloor {
		t.Errorf("elapsed %v looks serialized (one lane's work is %v)", elapsed, laneFloor)
	}
}

// smpSnapshot captures everything a deterministic SMP run must
// reproduce exactly: per-lane architectural state and counters, the
// elapsed wall-clock, and the runtime-global ABOM statistics.
type smpSnapshot struct {
	elapsed cycles.Cycles
	now     cycles.Cycles
	regs    [][arch.NumRegs]uint64
	counts  []arch.Counters
	abom    uint64
}

func runSMPOnce(t *testing.T) smpSnapshot {
	t.Helper()
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("smp", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := &cycles.Clock{}
	var procs []*Proc
	for i := 0; i < 4; i++ {
		text := arch.NewAssembler(arch.UserTextBase).
			Loop(100, func(a *arch.Assembler) {
				a.Work(2000)
				a.SyscallN(uint32(syscalls.Getpid))
				a.SyscallN64(uint32(syscalls.Write))
			}).Hlt().MustAssemble()
		p, err := rt.StartProcess(c, text, clk)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	elapsed, err := rt.RunConcurrent(procs, cycles.FromMicros(100), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s := smpSnapshot{elapsed: elapsed, now: clk.Now()}
	for _, p := range procs {
		s.regs = append(s.regs, p.CPU.Regs)
		s.counts = append(s.counts, p.CPU.Counters)
	}
	ab := rt.Hyper.ABOM.Stats
	s.abom = ab.Patched7Case1 + ab.Patched7Case2 + ab.Patched9Phase1 + ab.Patched9Phase2 +
		ab.RacesLost<<16 + ab.Unrecognized<<24
	return s
}

// TestRunSMPDeterministic pins the tentpole determinism claim:
// GOMAXPROCS, which sets the worker pool's width, changes wall-clock
// speed only — every lane's registers, counters, virtual clocks, and
// the runtime's ABOM stats are byte-identical.
func TestRunSMPDeterministic(t *testing.T) {
	var base smpSnapshot
	for _, gmp := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			got := runSMPOnce(t)
			if gmp == 1 {
				if got.elapsed == 0 {
					t.Fatal("no time consumed")
				}
				base = got
			} else if !reflect.DeepEqual(got, base) {
				t.Errorf("diverged from GOMAXPROCS=1:\n got %+v\nwant %+v", got, base)
			}
		})
	}
}

// TestRunSMPSharedTextWarmup pins the cross-vCPU patch story under
// deferred traps: four vCPUs executing one shared text image warm it
// up together — every patch lands at a barrier in vCPU order, later
// lanes run the patched sites as function calls, and the combined
// trap counts stay far below four independent warm-ups.
func TestRunSMPSharedTextWarmup(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("shared", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	text := arch.NewAssembler(arch.UserTextBase).
		Loop(50, func(a *arch.Assembler) { a.SyscallN(uint32(syscalls.Getpid)) }).
		Hlt().MustAssemble()
	clk := &cycles.Clock{}
	var procs []*Proc
	for i := 0; i < 4; i++ {
		p, err := rt.StartProcess(c, text, clk)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	if _, err := rt.RunConcurrent(procs, 0, 10_000_000); err != nil {
		t.Fatal(err)
	}
	var calls uint64
	for i, p := range procs {
		if !p.CPU.Halted {
			t.Fatalf("proc %d did not halt", i)
		}
		calls += p.CPU.Counters.VsyscallCalls
	}
	forwarded := rt.Hyper.Stats.SyscallsForwarded
	if forwarded+calls != 4*50 {
		t.Errorf("forwarded %d + function calls %d != 200 site executions", forwarded, calls)
	}
	// All four lanes hit the unpatched site in their first slice, so
	// each may trap once before the first barrier patches it — but
	// never more.
	if forwarded == 0 || forwarded > 4 {
		t.Errorf("forwarded = %d, want 1..4 (shared text must warm up once)", forwarded)
	}
}

func TestSharedTextPatchBenefitsAllProcesses(t *testing.T) {
	// Two nginx-style workers share one text image (fork'd workers map
	// the same pages). The first worker's trap patches the shared site;
	// the second worker must never trap at all.
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("workers", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	text := arch.NewAssembler(arch.UserTextBase).
		Loop(20, func(a *arch.Assembler) { a.SyscallN(uint32(syscalls.Getpid)) }).
		Hlt().MustAssemble()
	clk := &cycles.Clock{}
	pa, err := rt.StartProcess(c, text, clk)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rt.StartProcess(c, text, clk) // same *arch.Text
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.CPU.Run(1e6); err != nil {
		t.Fatal(err)
	}
	forwardedAfterA := rt.Hyper.Stats.SyscallsForwarded
	if forwardedAfterA != 1 {
		t.Fatalf("worker A forwarded %d syscalls, want 1", forwardedAfterA)
	}
	if err := pb.CPU.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if got := rt.Hyper.Stats.SyscallsForwarded; got != forwardedAfterA {
		t.Errorf("worker B trapped %d times; shared-text patches must carry over", got-forwardedAfterA)
	}
	if pb.CPU.Counters.VsyscallCalls != 20 {
		t.Errorf("worker B function calls = %d, want 20", pb.CPU.Counters.VsyscallCalls)
	}
}

func TestRunConcurrentValidation(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c1, _ := rt.NewContainer("a", 1, false)
	c2, _ := rt.NewContainer("b", 1, false)
	text := arch.NewAssembler(arch.UserTextBase).Hlt().MustAssemble()
	clk := &cycles.Clock{}
	p1, err := rt.StartProcess(c1, text, clk)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rt.StartProcess(c2, arch.NewText(text.Base, text.Bytes()), clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunConcurrent([]*Proc{p1, p2}, 0, 1000); err == nil {
		t.Fatal("processes of different containers must be rejected")
	}
	p3, err := rt.StartProcess(c1, arch.NewText(text.Base, text.Bytes()), &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunConcurrent([]*Proc{p1, p3}, 0, 1000); err == nil {
		t.Fatal("processes with different clocks must be rejected")
	}
	if _, err := rt.RunConcurrent(nil, 0, 1000); err != nil {
		t.Fatal("empty process list is a no-op")
	}
}

func TestRunConcurrentStepBudget(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, _ := rt.NewContainer("spin", 1, false)
	a := arch.NewAssembler(arch.UserTextBase)
	a.Label("spin").Jmp("spin")
	clk := &cycles.Clock{}
	p, err := rt.StartProcess(c, a.MustAssemble(), clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunConcurrent([]*Proc{p}, 0, 1000); err == nil {
		t.Fatal("spinning process must exhaust the step budget")
	}
}
