// Package workload implements the load generators of the paper's
// evaluation: the UnixBench microbenchmark suite and iperf (Fig. 4/5),
// and the closed-loop HTTP/KV drivers (ab, wrk, memtier) behind the
// macro experiments (Figs. 3, 6, 8, 9).
package workload

import (
	"fmt"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/netsim"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/syscalls"
)

// UnixBenchTest names one microbenchmark.
type UnixBenchTest string

const (
	TestSyscall    UnixBenchTest = "System Call"
	TestExecl      UnixBenchTest = "Execl"
	TestFileCopy   UnixBenchTest = "File Copy"
	TestPipe       UnixBenchTest = "Pipe Throughput"
	TestCtxSwitch  UnixBenchTest = "Context Switching"
	TestProcCreate UnixBenchTest = "Process Creation"
	TestIperf      UnixBenchTest = "iperf Throughput"
)

// AllUnixBenchTests lists the Fig. 5 panels in paper order (Fig. 4 is
// TestSyscall on its own).
func AllUnixBenchTests() []UnixBenchTest {
	return []UnixBenchTest{
		TestExecl, TestFileCopy, TestPipe, TestCtxSwitch, TestProcCreate, TestIperf,
	}
}

// SyscallLoopProgram is the UnixBench System Call benchmark: a tight
// loop of dup, close, getpid, getuid, umask (§5.4).
func SyscallLoopProgram(iters uint32) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(iters, func(b *arch.Assembler) {
		b.MovR32(arch.RDI, 0) // dup(0)
		b.SyscallN(uint32(syscalls.Dup))
		b.MovRegReg(arch.RDI, arch.RAX) // close(dup result)
		b.SyscallN(uint32(syscalls.Close))
		b.SyscallN(uint32(syscalls.Getpid))
		b.SyscallN(uint32(syscalls.Getuid))
		b.MovR32(arch.RDI, 0o22) // umask(022)
		b.SyscallN(uint32(syscalls.Umask))
	})
	a.Hlt()
	return a.MustAssemble()
}

// SyscallsPerIteration is how many syscalls one SyscallLoopProgram
// iteration makes.
const SyscallsPerIteration = 5

// ExeclProgram repeatedly re-executes an image (the UnixBench Execl
// test overlays the current process).
func ExeclProgram(iters uint32, imagePath uint64) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(iters, func(b *arch.Assembler) {
		b.MovR64(arch.RDI, uint32(imagePath))
		b.SyscallN(uint32(syscalls.Execve))
	})
	a.Hlt()
	return a.MustAssemble()
}

// FileCopyProgram copies between two files with a 1 KB buffer, the
// UnixBench File Copy configuration the paper uses.
func FileCopyProgram(iters uint32, srcID, dstID uint64) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	// open(src) -> fd 3; open(dst) -> fd 4 (deterministic allocation).
	a.MovR64(arch.RDI, uint32(srcID))
	a.SyscallN(uint32(syscalls.Open))
	a.MovR64(arch.RDI, uint32(dstID))
	a.SyscallN(uint32(syscalls.Open))
	a.Loop(iters, func(b *arch.Assembler) {
		b.MovR32(arch.RDI, 3)
		b.MovR32(arch.RDX, 1024)
		b.SyscallN(uint32(syscalls.Read))
		b.MovR32(arch.RDI, 4)
		b.MovR32(arch.RDX, 1024)
		b.SyscallN(uint32(syscalls.Write))
	})
	a.Hlt()
	return a.MustAssemble()
}

// PipeProgram is the single-process pipe throughput loop: write then
// read 512 bytes through a pipe.
func PipeProgram(iters uint32) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.SyscallN(uint32(syscalls.Pipe)) // read end fd 3, write end fd 4
	a.Loop(iters, func(b *arch.Assembler) {
		b.MovR32(arch.RDI, 4)
		b.MovR32(arch.RDX, 512)
		b.SyscallN(uint32(syscalls.Write))
		b.MovR32(arch.RDI, 3)
		b.MovR32(arch.RDX, 512)
		b.SyscallN(uint32(syscalls.Read))
	})
	a.Hlt()
	return a.MustAssemble()
}

// ProcessCreationProgram forks and reaps a child per iteration.
func ProcessCreationProgram(iters uint32) *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(iters, func(b *arch.Assembler) {
		b.SyscallN(uint32(syscalls.Fork))
		b.SyscallN(uint32(syscalls.Wait4))
	})
	a.Hlt()
	return a.MustAssemble()
}

// Score is one microbenchmark result in operations per virtual second.
type Score struct {
	Test  UnixBenchTest
	OpsPS float64
}

// concurrencyTax models running four benchmark copies at once (§5.4's
// "concurrent" configurations): shared-kernel runtimes contend on
// kernel locks and KPTI-flushed TLBs; hypervisor-partitioned runtimes
// barely notice.
func concurrencyTax(rt *runtimes.Runtime, concurrent bool) float64 {
	if !concurrent {
		return 1
	}
	switch rt.Cfg.Kind {
	case runtimes.Docker, runtimes.GVisor, runtimes.Graphene:
		if rt.Cfg.Patched {
			return 1.12
		}
		return 1.06
	default:
		return 1.02
	}
}

// RunUnixBench executes one microbenchmark under rt and returns ops/s.
// Interpreter-driven tests run the real binaries; Context Switching and
// iperf use the flow-level model (they are inherently multi-entity).
func RunUnixBench(rt *runtimes.Runtime, test UnixBenchTest, concurrent bool) (Score, error) {
	const iters = 2000
	tax := concurrencyTax(rt, concurrent)

	flowScore := func(perOp cycles.Cycles) Score {
		ops := cycles.Hz / (float64(perOp) * tax)
		return Score{Test: test, OpsPS: ops}
	}

	switch test {
	case TestCtxSwitch:
		// Two processes ping-ponging a token through a pipe: each
		// round trip is one write, one read, two context switches.
		perOp := rt.SyscallCost(syscalls.Write, true) +
			rt.SyscallCost(syscalls.Read, true) +
			2*rt.CtxSwitch(true)
		return flowScore(perOp), nil
	case TestIperf:
		// Bulk TCP: per packet, the sender pays the device path plus a
		// share of sendto syscalls (one syscall per ~4 MTU packets with
		// large buffers); symmetric receiver.
		perPkt := rt.NetPerPacket() + rt.SyscallCost(syscalls.Sendto, true)/4 +
			rt.InterruptCost()/4
		gbps := netsim.IperfThroughput(netsim.TenGbE(),
			cycles.Cycles(float64(perPkt)*tax), cycles.Cycles(float64(perPkt)*tax))
		return Score{Test: test, OpsPS: gbps}, nil
	}

	// Interpreter-driven tests.
	var text *arch.Text
	var opsPerIter float64
	c, err := rt.NewContainer("ub", 1, false)
	if err != nil {
		return Score{}, err
	}
	defer rt.Destroy(c)

	switch test {
	case TestSyscall:
		text = SyscallLoopProgram(iters)
		opsPerIter = SyscallsPerIteration
	case TestExecl:
		id := c.Svc.RegisterPath("/bin/looper")
		c.Svc.FS.Create("/bin/looper", 64*1024, 0755)
		text = ExeclProgram(iters, id)
		opsPerIter = 1
	case TestFileCopy:
		src := c.Svc.RegisterPath("/tmp/src")
		dst := c.Svc.RegisterPath("/tmp/dst")
		c.Svc.FS.Create("/tmp/src", 4*1024*1024, 0644)
		text = FileCopyProgram(iters, src, dst)
		opsPerIter = 1
	case TestPipe:
		text = PipeProgram(iters)
		opsPerIter = 1
	case TestProcCreate:
		text = ProcessCreationProgram(iters)
		opsPerIter = 1
	default:
		return Score{}, fmt.Errorf("workload: unknown test %q", test)
	}

	clk := &cycles.Clock{}
	p, err := rt.StartProcess(c, text, clk)
	if err != nil {
		return Score{}, err
	}
	if err := p.CPU.Run(100_000_000); err != nil {
		return Score{}, fmt.Errorf("workload: %s under %s: %w", test, rt.Name(), err)
	}
	secs := clk.Now().Seconds() * tax
	return Score{Test: test, OpsPS: float64(iters) * opsPerIter / secs}, nil
}
