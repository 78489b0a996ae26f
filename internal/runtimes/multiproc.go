package runtimes

import (
	"fmt"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/sim/par"
)

// This file implements deterministic SMP for tier-1 processes: several
// vCPUs of one container execute genuinely in parallel on host cores,
// while instruction counts, ABOM statistics, and virtual-time results
// stay byte-identical for any host parallelism (GOMAXPROCS, worker
// count). The schedule is lockstep quanta:
//
//   - Each process is a vCPU lane with a private virtual clock, seeded
//     from the shared clock. During a quantum, lanes run concurrently
//     up to the quantum deadline with trap deferral on: syscalls,
//     vsyscall calls, and invalid-opcode traps record a pending trap
//     and pause the lane instead of calling the environment, so the
//     parallel phase touches only lane-private state (CPU registers,
//     stack, block cache, TLB) plus lock-free text reads.
//   - At the barrier, pending traps are resolved in canonical vCPU
//     order on the caller's goroutine. Only here do cross-vCPU effects
//     happen — ABOM text patches, LibOS/linuxsim state, spawn/exit —
//     so their order is a pure function of the virtual schedule, not
//     of host thread timing.
//   - Sub-phases repeat until no lane can run before the deadline,
//     then the deadline advances by one quantum. Wall-clock virtual
//     time is the maximum over lanes: vCPUs genuinely overlap.
//
// A consequence of the promotion from the old serialized round-robin:
// processes on distinct vCPUs no longer pay intra-container context
// switches (there is nothing to switch), and elapsed virtual time is
// the slowest lane rather than the sum of all lanes.

// DefaultQuantum is the guest scheduler quantum used when the caller
// passes zero: the CFS minimum granularity.
func DefaultQuantum() cycles.Cycles { return cycles.FromMicros(750) }

// smpLane is one vCPU of a deterministic SMP run.
type smpLane struct {
	p    *Proc
	clk  cycles.Clock // private timeline, seeded from the shared clock
	prev uint64       // Counters.Instructions at the last barrier

	// Slice parameters, written by the coordinator before the
	// sub-phase and read by the executing worker (the pool's handoff
	// orders the accesses).
	budget   uint64
	deadline cycles.Cycles
}

// runnable reports whether the lane can execute before deadline: not
// terminal, no pending trap (the barrier clears those), clock short of
// the deadline.
func (ln *smpLane) runnable(deadline cycles.Cycles) bool {
	cpu := ln.p.CPU
	return !cpu.Halted && !cpu.Blocked && cpu.Fault == nil &&
		cpu.Trap == arch.TrapNone && ln.clk.Now() < deadline
}

// runSlice executes the lane up to its slice budget and deadline. It
// touches only lane-private state. The return value is dropped: faults
// surface through CPU.Fault for the barrier to report in vCPU order,
// and ErrBudget is not an error here — the barrier's step accounting
// turns global exhaustion into one.
func (ln *smpLane) runSlice() {
	_ = ln.p.CPU.RunUntil(ln.budget, ln.deadline)
}

// live reports whether the lane still wants CPU time eventually.
func (ln *smpLane) live() bool {
	cpu := ln.p.CPU
	return !cpu.Halted && !cpu.Blocked && cpu.Fault == nil
}

// RunConcurrent executes several tier-1 processes of one container in
// lockstep quanta (see the file comment) on a par.NewFor pool of
// min(GOMAXPROCS, len(procs)) host workers. Results are byte-identical
// for any GOMAXPROCS.
//
// Returns the elapsed virtual wall-clock time — the slowest vCPU's
// timeline — and an error if any process faults or the combined step
// budget is exhausted.
func (r *Runtime) RunConcurrent(procs []*Proc, quantum cycles.Cycles, maxSteps uint64) (cycles.Cycles, error) {
	if len(procs) == 0 {
		return 0, nil
	}
	clk := procs[0].CPU.Clock
	for _, p := range procs {
		if p.CPU.Clock != clk {
			return 0, fmt.Errorf("runtimes: RunConcurrent requires a shared clock")
		}
		if p.C != procs[0].C {
			return 0, fmt.Errorf("runtimes: RunConcurrent requires one container")
		}
	}
	if quantum == 0 {
		quantum = DefaultQuantum()
	}

	start := clk.Now()
	lanes := make([]smpLane, len(procs))
	for i, p := range procs {
		ln := &lanes[i]
		ln.p = p
		ln.clk.AdvanceTo(start)
		ln.prev = p.CPU.Counters.Instructions
		p.CPU.Clock = &ln.clk
		p.CPU.DeferTraps = true
	}
	// Whatever happens, hand the CPUs back on the shared clock with
	// trap deferral off and the shared timeline caught up to the
	// slowest lane.
	defer func() {
		for i := range lanes {
			cpu := lanes[i].p.CPU
			cpu.Clock = clk
			cpu.DeferTraps = false
			clk.AdvanceTo(lanes[i].clk.Now())
		}
	}()
	elapsed := func() cycles.Cycles {
		max := start
		for i := range lanes {
			if t := lanes[i].clk.Now(); t > max {
				max = t
			}
		}
		return max - start
	}

	// Host worker pool (internal/sim/par). With one worker the
	// coordinator runs slices inline — same lane order, same results.
	pool := par.NewFor(len(procs))
	defer pool.Close()
	run := make([]*smpLane, 0, len(lanes)) // the sub-phase's runnable lanes
	slice := func(i int) { run[i].runSlice() }

	var total uint64 // instructions across all lanes, exact at barriers
	deadline := start
	for {
		nLive := 0
		for i := range lanes {
			if lanes[i].live() {
				nLive++
			}
		}
		if nLive == 0 {
			return elapsed(), nil
		}
		deadline += quantum

		// Drain the quantum: parallel sub-phases, each followed by a
		// barrier, until no lane can run before the deadline. A lane
		// that traps mid-quantum resumes within the same quantum after
		// its trap resolves.
		for {
			run = run[:0]
			for i := range lanes {
				ln := &lanes[i]
				if !ln.runnable(deadline) {
					continue
				}
				// Each lane may run up to the globally remaining step
				// budget; the barrier detects overshoot. With several
				// lanes in flight the total can exceed maxSteps by up
				// to (lanes-1) slices — exhaustion is still always
				// detected at the very next barrier.
				ln.budget = maxSteps - total
				ln.deadline = deadline
				run = append(run, ln)
			}
			if len(run) == 0 {
				break // quantum drained
			}
			pool.Run(len(run), slice)

			// Barrier. Step accounting first, then cross-vCPU effects
			// (faults, trap resolution — text patches, LibOS state,
			// spawn/exit) in canonical vCPU order.
			for i := range lanes {
				ln := &lanes[i]
				c := ln.p.CPU.Counters.Instructions
				total += c - ln.prev
				ln.prev = c
			}
			if total >= maxSteps {
				return elapsed(), fmt.Errorf("runtimes: RunConcurrent step budget %d exhausted", maxSteps)
			}
			for i := range lanes {
				cpu := lanes[i].p.CPU
				if cpu.Fault != nil {
					return elapsed(), cpu.Fault
				}
				if cpu.Trap != arch.TrapNone {
					cpu.ResolveTrap()
					if cpu.Fault != nil {
						return elapsed(), cpu.Fault
					}
				}
			}
		}
	}
}
