package runtimes

// Deterministic-SMP benchmarks. BenchmarkTier1SMPScaling is the
// tentpole wall-clock claim: the same four-vCPU workload at GOMAXPROCS
// 1 versus GOMAXPROCS 4 (the pool's width) produces byte-identical
// results, and on a multi-core host the parallel variant should
// approach a linear speedup (>= 2.5x at 4 workers on >= 4 cores). On a
// single-core host both variants measure the same serialized schedule —
// the sub-benchmarks still run so CI tracks the scheduler's overhead
// trend.

import (
	"fmt"
	"runtime"
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

// smpBenchFleet builds one container with four vCPU lanes of the
// canonical compute+syscall mix on a shared clock.
func smpBenchFleet(b *testing.B) (*Runtime, []*Proc) {
	b.Helper()
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("bench-smp", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	clk := &cycles.Clock{}
	var procs []*Proc
	for i := 0; i < 4; i++ {
		text := arch.NewAssembler(arch.UserTextBase).
			Loop(500, func(a *arch.Assembler) {
				a.Work(500)
				a.SyscallN(uint32(syscalls.Getpid))
			}).Hlt().MustAssemble()
		p, err := rt.StartProcess(c, text, clk)
		if err != nil {
			b.Fatal(err)
		}
		procs = append(procs, p)
	}
	return rt, procs
}

// BenchmarkTier1SMPScaling runs the fleet at GOMAXPROCS 1, 2, and 4,
// which RunConcurrent's pool takes as its width. The instr/s metric is
// summed across lanes: on an idle multi-core host it scales with the
// worker count; results never change.
func BenchmarkTier1SMPScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > 1 && runtime.NumCPU() < workers {
				b.Skipf("host has %d CPUs; scaling at %d workers not measurable", runtime.NumCPU(), workers)
			}
			prev := runtime.GOMAXPROCS(workers)
			b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			rt, procs := smpBenchFleet(b)
			if _, err := rt.RunConcurrent(procs, 0, 1<<40); err != nil {
				b.Fatal(err) // warm-up: decode, patch, map stacks
			}
			var before uint64
			for _, p := range procs {
				before += p.CPU.Counters.Instructions
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range procs {
					p.CPU.Reset()
				}
				if _, err := rt.RunConcurrent(procs, 0, 1<<40); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var after uint64
			for _, p := range procs {
				after += p.CPU.Counters.Instructions
			}
			if instr := after - before; instr > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
				b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
			}
		})
	}
}
