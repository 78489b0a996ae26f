package arch_test

// Zero-alloc regression guards for the tier-1 instruction path — the
// counterpart of internal/sim/alloc_test.go for the event kernel. The
// old interpreter allocated one 8-byte slice per simulated instruction
// (the Fetch copy); the block cache plus paged stack must allocate
// nothing once warm, or every §5 tier-1 experiment silently pays GC
// tax again.

import (
	"errors"
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
)

// requireZeroAllocs runs fn runs times, after a warm-up of one whole
// batch, and requires the batch to allocate nothing. It reads the exact
// total: AllocsPerRun(runs, fn) integer-divides, so it would pass a
// path that allocates fewer than runs times.
func requireZeroAllocs(t *testing.T, name string, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			fn()
		}
	}); n != 0 {
		t.Errorf("%s: %v allocations in %d steady-state runs, want 0", name, n, runs)
	}
}

// TestTier1SteadyStateAllocFree: once the block cache and stack pages
// are warm, a full reset-and-rerun of the syscall-loop microbenchmark
// allocates nothing — 0 allocs/instruction, enforced.
func TestTier1SteadyStateAllocFree(t *testing.T) {
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(syscallLoopText(200), nullEnv{}, clk, &cycles.Default)
	if err := cpu.Run(1 << 30); err != nil { // warm-up: decode blocks, map stack pages
		t.Fatal(err)
	}
	requireZeroAllocs(t, "syscall loop", 20, func() {
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTier1SuperblockSteadyStateAllocFree: once a hot loop has formed
// a superblock trace, re-running the program dispatches through the
// trace arena and allocates nothing — 0 allocs/instruction with the
// trace tier engaged, enforced.
func TestTier1SuperblockSteadyStateAllocFree(t *testing.T) {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(500, func(a *arch.Assembler) { a.Nop().Work(10).PushRax().PopRax() })
	a.Hlt()
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(a.MustAssemble(), nullEnv{}, clk, &cycles.Default)
	if err := cpu.Run(1 << 30); err != nil { // warm-up: heat the chain, form the trace
		t.Fatal(err)
	}
	if cpu.Counters.SuperblockForms == 0 || cpu.Counters.SuperblockHits == 0 {
		t.Fatalf("warm-up did not engage the trace tier: %+v", cpu.Counters)
	}
	hitsBefore := cpu.Counters.SuperblockHits
	requireZeroAllocs(t, "superblock loop", 20, func() {
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
	})
	if cpu.Counters.SuperblockHits <= hitsBefore {
		t.Error("measured runs did not execute through the trace")
	}
}

// TestTier1BudgetExitAllocFree: exhausting the instruction budget is
// the scheduler-quantum hot exit (RunConcurrent slices programs into
// quanta); it must return the typed ErrBudget without formatting a
// fresh error.
func TestTier1BudgetExitAllocFree(t *testing.T) {
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(syscallLoopText(1<<20), nullEnv{}, clk, &cycles.Default)
	if err := cpu.Run(1000); !errors.Is(err, arch.ErrBudget) {
		t.Fatalf("Run = %v, want ErrBudget", err)
	}
	requireZeroAllocs(t, "budget exit", 20, func() {
		if err := cpu.Run(1000); !errors.Is(err, arch.ErrBudget) {
			t.Fatal(err)
		}
	})
}

// TestRunBudgetExact pins the budget semantics on both execution
// paths: exactly maxInstr instructions execute — never one more — and
// a zero budget executes nothing.
func TestRunBudgetExact(t *testing.T) {
	for _, disable := range []bool{false, true} {
		cpu := arch.NewCPU(syscallLoopText(100), nullEnv{}, &cycles.Clock{}, &cycles.Default)
		cpu.DisableCache = disable

		if err := cpu.Run(0); !errors.Is(err, arch.ErrBudget) {
			t.Fatalf("disable=%v: Run(0) = %v, want ErrBudget", disable, err)
		}
		if cpu.Counters.Instructions != 0 {
			t.Fatalf("disable=%v: Run(0) executed %d instructions", disable, cpu.Counters.Instructions)
		}

		for _, budget := range []uint64{1, 7, 64, 100} {
			cpu.Reset()
			cpu.Counters = arch.Counters{}
			if err := cpu.Run(budget); !errors.Is(err, arch.ErrBudget) {
				t.Fatalf("disable=%v: Run(%d) = %v, want ErrBudget", disable, budget, err)
			}
			if got := cpu.Counters.Instructions; got != budget {
				t.Fatalf("disable=%v: Run(%d) executed %d instructions, want exactly the budget",
					disable, budget, got)
			}
		}

		// A program that finishes on its last budgeted instruction
		// halts cleanly instead of reporting exhaustion.
		total := countInstructions(t)
		cpu.Reset()
		cpu.Counters = arch.Counters{}
		if err := cpu.Run(total); err != nil {
			t.Fatalf("disable=%v: Run(total=%d) = %v, want clean halt", disable, total, err)
		}
		if !cpu.Halted {
			t.Fatalf("disable=%v: program did not halt", disable)
		}
	}
}

// countInstructions measures the syscall-loop program's exact length.
func countInstructions(t *testing.T) uint64 {
	t.Helper()
	cpu := arch.NewCPU(syscallLoopText(100), nullEnv{}, &cycles.Clock{}, &cycles.Default)
	if err := cpu.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	return cpu.Counters.Instructions
}
