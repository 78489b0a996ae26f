package arch_test

// Tier-1 interpreter benchmarks. These are the instruction-path
// counterpart of internal/sim's event-kernel benchmarks: every §5
// micro/macro number, warm-up pass, and ABOM conversion stat is a
// stream of instructions through arch.CPU, so ns/instruction here
// multiplies all tier-1 results. The external test package lets the
// warm-up benchmark drive the real ABOM patcher against the
// interpreter's block cache without an import cycle.

import (
	"testing"

	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
)

// nullEnv absorbs traps at zero model cost so the benchmarks measure
// the interpreter, not a runtime's charging policy.
type nullEnv struct{}

func (nullEnv) Syscall(cpu *arch.CPU) arch.Action { return arch.ActionContinue }
func (nullEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Ret()
	return arch.ActionContinue
}
func (nullEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// patchEnv is a minimal X-Kernel: every trapped syscall is offered to
// ABOM, vsyscall calls return through the 9-byte-patch return-address
// skip (mirroring libos.HandleVsyscall), and jump-into-middle faults
// are repaired. It exercises live text patching under the interpreter.
type patchEnv struct {
	ab      *abom.ABOM
	retSkip *abom.ReturnSkipCache
}

func (e patchEnv) Syscall(cpu *arch.CPU) arch.Action {
	e.ab.OnSyscall(cpu.Text, cpu.RIP-2, cpu.Regs[arch.RAX])
	return arch.ActionContinue
}

func (e patchEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	ret := cpu.ReadStack(0)
	if e.retSkip.ReturnSkip(cpu.Text, ret) {
		cpu.PokeStack(0, ret+2)
	}
	cpu.Ret()
	return arch.ActionContinue
}

func (e patchEnv) InvalidOpcode(cpu *arch.CPU) bool {
	fixed, ok := e.ab.FixupInvalidOpcode(cpu.Text, cpu.RIP)
	if !ok {
		return false
	}
	cpu.RIP = fixed
	return true
}

// syscallLoopText is the UnixBench System Call shape: a counted loop of
// glibc-style getpid wrappers.
func syscallLoopText(iters uint32) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(iters, func(a *arch.Assembler) { a.SyscallN(39) })
	a.Hlt()
	return a.MustAssemble()
}

// warmupText mixes ABOM's 7-byte and 9-byte wrapper shapes in one loop,
// so a run covers trap→patch→function-call conversion, the two-phase
// 9-byte patch, and steady-state patched execution.
func warmupText(iters uint32) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(iters, func(a *arch.Assembler) {
		a.SyscallN(39)   // case 1: 5-byte mov + syscall
		a.SyscallN64(39) // 9-byte two-phase pattern
	})
	a.Hlt()
	return a.MustAssemble()
}

// BenchmarkTier1SyscallLoop measures steady-state interpretation of the
// syscall-loop microbenchmark (no patching; the decoder and stack are
// the whole cost). The ns/instr metric is what the tier1-syscall-loop
// kernel perf probe tracks.
func BenchmarkTier1SyscallLoop(b *testing.B) {
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(syscallLoopText(1000), nullEnv{}, clk, &cycles.Default)
	before := cpu.Counters.Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	instr := cpu.Counters.Instructions - before
	if instr > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
}

// BenchmarkTier1SuperblockLoop measures the trace tier's steady state:
// a hot compute loop whose chain crossed the heat threshold during the
// first iteration, so the measured runs dispatch once into the formed
// superblock and execute straight-line records until the loop falls
// through. The delta against BenchmarkTier1SyscallLoop is what trace
// formation buys over per-block chain dispatch.
func BenchmarkTier1SuperblockLoop(b *testing.B) {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(1000, func(a *arch.Assembler) { a.Nop().Work(10).PushRax().PopRax() })
	a.Hlt()
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(a.MustAssemble(), nullEnv{}, clk, &cycles.Default)
	if err := cpu.Run(1 << 30); err != nil { // warm-up forms the trace
		b.Fatal(err)
	}
	if cpu.Counters.SuperblockForms == 0 {
		b.Fatal("warm-up did not form a superblock")
	}
	before := cpu.Counters.Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	instr := cpu.Counters.Instructions - before
	if instr > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
}

// BenchmarkTier1SuperblockOff is the control: the identical program
// with trace formation disabled, so only the block cache's chain
// dispatch runs. Compare ns/instr against BenchmarkTier1SuperblockLoop.
func BenchmarkTier1SuperblockOff(b *testing.B) {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(1000, func(a *arch.Assembler) { a.Nop().Work(10).PushRax().PopRax() })
	a.Hlt()
	clk := &cycles.Clock{}
	cpu := arch.NewCPU(a.MustAssemble(), nullEnv{}, clk, &cycles.Default)
	cpu.DisableSuperblocks = true
	if err := cpu.Run(1 << 30); err != nil {
		b.Fatal(err)
	}
	before := cpu.Counters.Instructions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Reset()
		clk.Reset()
		if err := cpu.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	instr := cpu.Counters.Instructions - before
	if instr > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
}

// BenchmarkTier1ABOMWarmup measures the warm-up regime: fresh text each
// iteration, live cmpxchg patches landing in the loop body while it
// executes — the worst case for a block cache, which must invalidate
// and re-decode around every patch.
func BenchmarkTier1ABOMWarmup(b *testing.B) {
	var instr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := &cycles.Clock{}
		cpu := arch.NewCPU(warmupText(200), patchEnv{ab: abom.New(), retSkip: &abom.ReturnSkipCache{}}, clk, &cycles.Default)
		if err := cpu.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
		instr += cpu.Counters.Instructions
	}
	b.StopTimer()
	if instr > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
}
