// Package libos implements the X-LibOS: the Linux kernel restructured
// to run as a library operating system inside an X-Container (paper
// §4.2–4.4).
//
// The LibOS shares the address space and privilege level of its
// processes. System calls reach it two ways:
//
//   - as function calls through the vsyscall entry table at
//     arch.VsyscallBase, installed by ABOM patches or offline patching
//     (the lightweight path: no trap, no mode switch);
//   - forwarded by the X-Kernel when an unpatched syscall instruction
//     traps (the slow path).
//
// Semantics are provided by linuxsim.Services — deliberately the same
// code that backs the baseline kernels, because X-LibOS *is* Linux
// (§3.2); only the entry paths and privilege structure differ.
package libos

import (
	"fmt"
	"sync"

	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/linuxsim"
	"xcontainers/internal/syscalls"
)

// Config is the kernel build/boot configuration of one X-LibOS. The
// paper's §3.2 argues that dedicating a kernel to a single application
// unlocks tuning that shared kernels cannot do; these knobs model the
// cases its evaluation uses.
type Config struct {
	// SMP enables multi-core support. Disabling it for single-threaded
	// applications "can eliminate unnecessary locking and TLB
	// shoot-downs" (§3.2); handlers get cheaper.
	SMP bool

	// Modules lists kernel modules loaded at boot (e.g. "ipvs" for the
	// §5.7 load-balancing case study, "soft-iwarp", "soft-roce").
	Modules []string
}

// DefaultConfig matches the evaluation's general-purpose X-LibOS build.
func DefaultConfig() Config { return Config{SMP: true} }

// smpFreeDiscount is the fraction of handler-body cycles saved when SMP
// support (locking, TLB shootdown machinery) is compiled out.
const smpFreeDiscount = 0.15

// Stats counts LibOS entry events.
type Stats struct {
	FunctionCallSyscalls uint64 // lightweight path entries
	TrappedSyscalls      uint64 // X-Kernel-forwarded entries
	ReturnSkips          uint64 // 9-byte-patch return-address fixups
	ModulesLoaded        uint64
}

// LibOS is one X-LibOS instance — one per X-Container.
type LibOS struct {
	Costs    *cycles.CostTable
	Services *linuxsim.Services
	Config   Config

	mu      sync.Mutex
	modules map[string]bool
	Stats   Stats

	// retSkip memoizes the per-vsyscall return-address probe. Accessed
	// only from HandleVsyscall, which is serialized per container the
	// same way the CPU itself is.
	retSkip abom.ReturnSkipCache
}

// New boots an X-LibOS with the given configuration.
func New(costs *cycles.CostTable, cfg Config) *LibOS {
	if costs == nil {
		costs = &cycles.Default
	}
	l := &LibOS{
		Costs:    costs,
		Services: linuxsim.NewServices(),
		Config:   cfg,
		modules:  make(map[string]bool),
	}
	for _, m := range cfg.Modules {
		l.modules[m] = true
		l.Stats.ModulesLoaded++
	}
	return l
}

// LoadModule loads a kernel module at runtime. In Docker this requires
// root privilege on the *host* and exposes the shared kernel; in an
// X-Container the module loads into the container's private LibOS
// (§5.7).
func (l *LibOS) LoadModule(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.modules[name] {
		l.modules[name] = true
		l.Stats.ModulesLoaded++
	}
}

// HasModule reports whether a module is loaded.
func (l *LibOS) HasModule(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.modules[name]
}

// handlerBody charges the kernel work of syscall n, discounted if SMP
// machinery is compiled out.
func (l *LibOS) handlerBody(clk *cycles.Clock, n syscalls.No) {
	c := float64(syscalls.HandlerCycles(syscalls.Classify(n)))
	if !l.Config.SMP {
		c *= 1 - smpFreeDiscount
	}
	clk.Advance(cycles.Cycles(c))
}

// HandleVsyscall is the lightweight system-call entry: a function call
// through the vsyscall table. The CPU has pushed the return address and
// jumped to entry. The handler:
//
//  1. resolves the syscall number from the entry slot (direct entries),
//     RAX (generic dispatcher) or 0x8(%rsp) (stack dispatcher);
//  2. switches to the process's kernel stack (§4.3 still requires
//     dedicated kernel stacks) — flipping the RSP mode bit;
//  3. runs the handler body;
//  4. applies the 9-byte-patch return-address check (§4.4): if the
//     instruction at the return address is the leftover syscall or the
//     jmp-back, skip it;
//  5. returns with an ordinary ret (the optimized sysret of §4.2).
func (l *LibOS) HandleVsyscall(cpu *arch.CPU, entry uint64, proc *linuxsim.Process) arch.Action {
	n, generic, stack, ok := abom.DecodeEntry(entry)
	if !ok {
		cpu.Fault = fmt.Errorf("libos: call into vsyscall page at bad entry %#x", entry)
		return arch.ActionExit
	}
	switch {
	case generic:
		n = syscalls.No(cpu.Regs[arch.RAX])
	case stack:
		// The patched site was "mov 0x8(%rsp),%rax; syscall" (Go's
		// syscall.Syscall shape). Our call pushed one extra return
		// address on top of the frame that mov addressed, so the
		// number now sits one word deeper, at 0x10(%rsp) — the +8
		// adjustment the 0xc08 dispatcher entry exists to make.
		n = syscalls.No(cpu.ReadStack(16))
	}

	l.mu.Lock()
	l.Stats.FunctionCallSyscalls++
	l.mu.Unlock()

	cpu.Clock.Advance(l.Costs.FunctionCall)
	cpu.SwitchToKernelStack()
	if !cpu.InGuestKernelMode() {
		cpu.Fault = fmt.Errorf("libos: kernel stack not in kernel half (rsp=%#x)", cpu.Regs[arch.RSP])
		return arch.ActionExit
	}
	l.handlerBody(cpu.Clock, n)
	act := l.doSemantics(cpu, n, proc)
	cpu.SwitchToUserStack()

	// Return-address check for the 9-byte two-phase patch, memoized per
	// call site and validated by the text generation so steady-state
	// patched loops dispatch inline without re-probing the text.
	ret := cpu.ReadStack(0)
	if l.retSkip.ReturnSkip(cpu.Text, ret) {
		cpu.PokeStack(0, ret+2)
		l.mu.Lock()
		l.Stats.ReturnSkips++
		l.mu.Unlock()
	}
	cpu.Ret()
	return act
}

// HandleTrappedSyscall is the slow path: the X-Kernel forwarded a raw
// syscall instruction (already charged), and the LibOS handles it.
// RIP is already past the syscall instruction.
func (l *LibOS) HandleTrappedSyscall(cpu *arch.CPU, proc *linuxsim.Process) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	l.mu.Lock()
	l.Stats.TrappedSyscalls++
	l.mu.Unlock()

	cpu.SwitchToKernelStack()
	l.handlerBody(cpu.Clock, n)
	act := l.doSemantics(cpu, n, proc)
	cpu.SwitchToUserStack()
	// Optimized sysret: return to user code without trapping (§4.2).
	cpu.Clock.Advance(l.Costs.IretUserMode)
	return act
}

// PTUpdateCost is the cost of `updates` page-table writes from inside
// an X-Container: each is a validated X-Kernel hypercall, batched eight
// per trap through multicall — the §5.4 process-creation penalty.
func PTUpdateCost(costs *cycles.CostTable, updates int) cycles.Cycles {
	perBatch := costs.Hypercall / 8
	return cycles.Cycles(updates) * (costs.PageTableUpdateHypercall/2 + perBatch)
}

// doSemantics runs the shared Linux semantics and writes the result
// into RAX.
func (l *LibOS) doSemantics(cpu *arch.CPU, n syscalls.No, proc *linuxsim.Process) arch.Action {
	switch n {
	case syscalls.Exit:
		l.Services.Exit(proc, int(cpu.Regs[arch.RDI]))
		return arch.ActionExit
	case syscalls.Fork, syscalls.Clone:
		// The child's page tables are built through X-Kernel
		// hypercalls even on the lightweight entry path.
		child := l.Services.Fork(proc)
		cpu.Clock.Advance(PTUpdateCost(l.Costs, linuxsim.ForkPages(proc.Pages)))
		cpu.Regs[arch.RAX] = uint64(child.PID)
		return arch.ActionContinue
	case syscalls.Execve:
		cpu.Clock.Advance(PTUpdateCost(l.Costs, linuxsim.ExecPages(proc.Pages)))
		cpu.Regs[arch.RAX] = 0
		return arch.ActionContinue
	}
	ret, err := l.Services.Do(proc, n, cpu.Regs[arch.RDI], cpu.Regs[arch.RSI], cpu.Regs[arch.RDX])
	if err != nil {
		cpu.Fault = fmt.Errorf("libos: %v: %w", n, err)
		return arch.ActionExit
	}
	cpu.Regs[arch.RAX] = ret
	return arch.ActionContinue
}

// Boot-time model (§4.5): the X-LibOS itself boots in ~180 ms; going
// through Xen's xl toolstack costs ~3 s; LightVM's optimized toolstack
// would cut that to ~4 ms.
const (
	BootLibOSMillis            = 180
	BootXLToolstackMillis      = 2820 // toolstack overhead on top of LibOS boot
	BootLightVMToolstackMillis = 4
)

// BootCycles returns the simulated boot cost of an X-Container.
func BootCycles(useXLToolstack bool) cycles.Cycles {
	ms := float64(BootLibOSMillis)
	if useXLToolstack {
		ms += BootXLToolstackMillis
	} else {
		ms += BootLightVMToolstackMillis
	}
	return cycles.FromSeconds(ms / 1000)
}
