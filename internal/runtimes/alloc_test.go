package runtimes

// Zero-alloc regression guard for the deterministic SMP scheduler: the
// quantum/barrier machinery in RunConcurrent must not allocate per
// quantum, or long multi-vCPU runs (thousands of quanta) pay GC tax
// that the single-CPU tier-1 path already eliminated. Setup (the lane
// array) may allocate a small constant; the guard pins that total
// allocations do not grow with the number of quanta executed.

import (
	"runtime"
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
)

// TestRunSMPBarrierAllocFree runs the same two-lane compute workload
// once with a quantum so large the run fits in a single quantum, and
// once with a quantum small enough to force hundreds of barrier
// rounds. Identical allocation counts mean the barrier loop itself is
// alloc-free. GOMAXPROCS 1 gives a one-worker pool, so no helper
// goroutine's start adds to either count.
func TestRunSMPBarrierAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("alloc", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := &cycles.Clock{}
	var procs []*Proc
	for i := 0; i < 2; i++ {
		// Pure compute: no syscalls, so no trap resolution — the
		// measurement isolates the scheduler's own quantum loop.
		text := arch.NewAssembler(arch.UserTextBase).
			Loop(200, func(a *arch.Assembler) { a.Work(2000) }).
			Hlt().MustAssemble()
		p, err := rt.StartProcess(c, text, clk)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}

	measure := func(quantum cycles.Cycles) float64 {
		return testing.AllocsPerRun(1, func() {
			for range 10 {
				for _, p := range procs {
					p.CPU.Reset()
				}
				if _, err := rt.RunConcurrent(procs, quantum, 100_000_000); err != nil {
					t.Fatal(err)
				}
				for _, p := range procs {
					if !p.CPU.Halted {
						t.Fatal("lane did not halt")
					}
				}
			}
		})
	}
	// Warm both shapes first: block caches decode, stack pages map.
	onePass := measure(cycles.FromMicros(1_000_000)) // whole run in one quantum
	manyPass := measure(cycles.FromMicros(1))        // hundreds of quanta
	if manyPass > onePass {
		t.Errorf("barrier loop allocates: %v allocations in 10 runs over many quanta vs %v in one quantum",
			manyPass, onePass)
	}
}
