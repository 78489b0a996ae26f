package runtimes

import (
	"fmt"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/linuxsim"
	"xcontainers/internal/mem"
	"xcontainers/internal/syscalls"
)

// Proc is one tier-1 process: a binary executing on an interpreter CPU
// wired to its runtime's environment.
type Proc struct {
	C   *Container
	OS  *linuxsim.Process
	CPU *arch.CPU
}

// defaultHeapPages pads the text image to a realistic process size for
// fork/exec cost accounting.
const defaultHeapPages = 256

// StartProcess loads text into a fresh process of container c and
// returns the ready-to-run Proc. The same text can be started under any
// runtime — binary compatibility is the point (§2.3) — and the
// environments below make each trap take that architecture's path.
func (r *Runtime) StartProcess(c *Container, text *arch.Text, clk *cycles.Clock) (*Proc, error) {
	if r.Cfg.Kind == Unikernel && c.Procs >= 1 {
		return nil, fmt.Errorf("runtimes: %v supports a single process per instance", r.Cfg.Kind)
	}
	pages := text.Size()/arch.PageSize + 1 + defaultHeapPages
	p := &Proc{C: c, OS: c.Svc.NewProcess(pages)}
	env, err := r.envFor(p)
	if err != nil {
		return nil, err
	}
	p.CPU = arch.NewCPU(text, env, clk, r.Costs)
	// For hypervisor-hosted containers, build the process's page table
	// from the domain's own frames, have the hypervisor validate it,
	// and put instruction fetch behind a TLB — isolation enforced on
	// the execution path, not just asserted.
	if c.Dom != nil && r.Hyper != nil {
		as := mem.NewAddressSpace(c.Dom.Owner)
		textPages := text.Size()/arch.PageSize + 1
		pages := textPages
		if r.Cfg.Kind == XContainer {
			pages++ // the vsyscall page
		}
		if pages > c.Dom.MemoryPages {
			return nil, fmt.Errorf("runtimes: image needs %d pages, domain has %d", pages, c.Dom.MemoryPages)
		}
		// The domain holds MemoryPages frames, so each Nth below exists.
		for i := 0; i < textPages; i++ {
			vp := text.Base/arch.PageSize + uint64(i)
			f, _ := r.Hyper.Frames.Nth(c.Dom.Owner, i)
			if err := r.Hyper.PTUpdate(clk, c.Dom, as, vp, mem.PTE{Frame: f, User: true}); err != nil {
				return nil, err
			}
		}
		if r.Cfg.Kind == XContainer {
			// Map the vsyscall page in the kernel half: the X-Kernel
			// grants it the global bit (§4.3).
			vs := arch.VsyscallBase / arch.PageSize
			f, _ := r.Hyper.Frames.Nth(c.Dom.Owner, textPages)
			if err := r.Hyper.PTUpdate(clk, c.Dom, as, vs, mem.PTE{Frame: f, User: true}); err != nil {
				return nil, err
			}
		}
		if err := r.Hyper.RegisterAddressSpace(c.Dom, as); err != nil {
			return nil, err
		}
		p.CPU.AS = as
		p.CPU.TLB = mem.NewTLB(0)
		// §4.4: ABOM patches write read-only text from kernel mode, so
		// "the page table dirty bit will be set for read-only pages" —
		// X-LibOS may ignore it or flush the page to persist the patch.
		base := text.Base / arch.PageSize
		text.DirtyHook = func(pg uint64) { as.MarkDirty(base + pg) }
	}
	c.Procs++
	return p, nil
}

func (r *Runtime) envFor(p *Proc) (arch.Env, error) {
	switch r.Cfg.Kind {
	case Docker:
		return &hostKernelEnv{p: p, k: r.Host}, nil
	case GVisor:
		return &gvisorEnv{p: p, r: r}, nil
	case XenContainer, XenPVVM:
		return &xenPVEnv{p: p, r: r}, nil
	case XenHVMVM, ClearContainer:
		return &hvmEnv{p: p, r: r}, nil
	case XContainer:
		return &xcEnv{p: p, r: r}, nil
	case Unikernel:
		return &unikernelEnv{p: p, r: r}, nil
	case Graphene:
		return &grapheneEnv{p: p, r: r}, nil
	}
	return nil, fmt.Errorf("runtimes: no environment for kind %d", r.Cfg.Kind)
}

// doSemantics executes syscall semantics shared by all environments,
// charging architecture-specific costs for process-lifecycle calls.
func doSemantics(r *Runtime, p *Proc, cpu *arch.CPU, n syscalls.No) arch.Action {
	switch n {
	case syscalls.Exit:
		p.C.Svc.Exit(p.OS, int(cpu.Regs[arch.RDI]))
		return arch.ActionExit
	case syscalls.Fork, syscalls.Clone:
		child := p.C.Svc.Fork(p.OS)
		cpu.Clock.Advance(r.ForkCost(p.OS.Pages))
		cpu.Regs[arch.RAX] = uint64(child.PID)
		return arch.ActionContinue
	case syscalls.Execve:
		cpu.Clock.Advance(r.ExecCost(p.OS.Pages))
		cpu.Regs[arch.RAX] = 0
		return arch.ActionContinue
	case syscalls.Wait4:
		cpu.Regs[arch.RAX] = 0
		return arch.ActionContinue
	}
	ret, err := p.C.Svc.Do(p.OS, n, cpu.Regs[arch.RDI], cpu.Regs[arch.RSI], cpu.Regs[arch.RDX])
	if err != nil {
		cpu.Fault = fmt.Errorf("runtimes: %v: %w", n, err)
		return arch.ActionExit
	}
	cpu.Regs[arch.RAX] = ret
	return arch.ActionContinue
}

// ForkCost is the architecture-specific cost of fork (page-table
// construction for the child).
func (r *Runtime) ForkCost(imagePages int) cycles.Cycles {
	return r.ptUpdateCost(linuxsim.ForkPages(imagePages)) +
		cycles.Cycles(syscalls.HandlerCycles(syscalls.KindProcess))
}

// ExecCost is the architecture-specific cost of execve (tear down and
// rebuild the address space).
func (r *Runtime) ExecCost(imagePages int) cycles.Cycles {
	return r.ptUpdateCost(linuxsim.ExecPages(imagePages)) +
		cycles.Cycles(syscalls.HandlerCycles(syscalls.KindProcess))
}

func (r *Runtime) ptUpdateCost(updates int) cycles.Cycles {
	switch r.Cfg.Kind {
	case XContainer, XenContainer, XenPVVM, Unikernel:
		// Page-table operations "must be done in the X-Kernel" (§5.4):
		// validated hypercalls (batched via multicall, 8 per trap).
		perBatch := r.Costs.Hypercall / 8
		return cycles.Cycles(updates) * (r.Costs.PageTableUpdateHypercall/2 + perBatch)
	case GVisor:
		return cycles.Cycles(updates) * (r.Costs.PageTableUpdateDirect + r.Costs.SyscallTrap/4)
	case ClearContainer, XenHVMVM:
		return cycles.Cycles(updates)*r.Costs.PageTableUpdateDirect +
			cycles.Cycles(updates/16)*r.Costs.VMExit
	default:
		return cycles.Cycles(updates) * r.Costs.PageTableUpdateDirect
	}
}

// hostKernelEnv: Docker — raw syscalls into the shared host kernel.
type hostKernelEnv struct {
	p *Proc
	k *linuxsim.Kernel
}

func (e *hostKernelEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	e.k.SyscallEntry(cpu.Clock)
	e.k.HandlerBody(cpu.Clock, n)
	return doSemantics(e.p.C.RT, e.p, cpu, n)
}

func (e *hostKernelEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("docker: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *hostKernelEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// gvisorEnv: every syscall is intercepted by the Sentry via ptrace.
type gvisorEnv struct {
	p *Proc
	r *Runtime
}

func (e *gvisorEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	cpu.Clock.Advance(e.r.Costs.PtraceSyscallStop)
	if e.r.Cfg.Patched {
		cpu.Clock.Advance(4 * e.r.Costs.KPTIPerSyscall)
	}
	cpu.Clock.Advance(cycles.Cycles(syscalls.HandlerCycles(syscalls.Classify(n))))
	return doSemantics(e.r, e.p, cpu, n)
}

func (e *gvisorEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("gvisor: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *gvisorEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// xenPVEnv: stock 64-bit Xen PV — syscalls bounce through the
// hypervisor into the isolated guest kernel (§4.1).
type xenPVEnv struct {
	p *Proc
	r *Runtime
}

func (e *xenPVEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	e.r.Hyper.ForwardSyscallPV(cpu.Clock)
	if e.p.C.Guest.KPTI {
		cpu.Clock.Advance(e.r.Costs.KPTIPerSyscall)
	}
	e.p.C.Guest.HandlerBody(cpu.Clock, n)
	return doSemantics(e.r, e.p, cpu, n)
}

func (e *xenPVEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("xen-pv: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *xenPVEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// hvmEnv: hardware-virtualized guests (Xen HVM, Clear Containers) —
// syscalls stay inside the guest kernel.
type hvmEnv struct {
	p *Proc
	r *Runtime
}

func (e *hvmEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	if e.r.Cfg.Kind == ClearContainer {
		cpu.Clock.Advance(e.r.Costs.OptimizedGuestSyscall)
	} else {
		e.p.C.Guest.SyscallEntry(cpu.Clock)
	}
	e.p.C.Guest.HandlerBody(cpu.Clock, n)
	return doSemantics(e.r, e.p, cpu, n)
}

func (e *hvmEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("hvm: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *hvmEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// xcEnv: the X-Container — first syscall per site traps into the
// X-Kernel and gets ABOM-patched; thereafter the site is a function
// call into X-LibOS.
type xcEnv struct {
	p *Proc
	r *Runtime
}

func (e *xcEnv) Syscall(cpu *arch.CPU) arch.Action {
	sysRIP := cpu.RIP - 2 // RIP already advanced past the 2-byte syscall
	e.r.Hyper.ForwardSyscallX(cpu.Clock, cpu.Text, sysRIP, cpu.Regs[arch.RAX])
	return e.p.C.LibOS.HandleTrappedSyscall(cpu, e.p.OS)
}

func (e *xcEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	return e.p.C.LibOS.HandleVsyscall(cpu, entry, e.p.OS)
}

func (e *xcEnv) InvalidOpcode(cpu *arch.CPU) bool {
	fixed, ok := e.r.Hyper.ABOM.FixupInvalidOpcode(cpu.Text, cpu.RIP)
	if !ok {
		return false
	}
	cpu.Clock.Advance(e.r.Costs.InvalidOpcodeFixup)
	cpu.RIP = fixed
	return true
}

// unikernelEnv: Rumprun — the application is recompiled against the
// rump kernel, so "syscalls" are plain function calls; only one process
// exists.
type unikernelEnv struct {
	p *Proc
	r *Runtime
}

func (e *unikernelEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	if n == syscalls.Fork || n == syscalls.Clone || n == syscalls.Execve {
		cpu.Fault = fmt.Errorf("unikernel: %v unsupported (single-process LibOS)", n)
		return arch.ActionExit
	}
	cpu.Clock.Advance(e.r.Costs.FunctionCall)
	body := float64(syscalls.HandlerCycles(syscalls.Classify(n))) * e.r.Costs.RumpHandlerFactor
	cpu.Clock.Advance(cycles.Cycles(body))
	return doSemantics(e.r, e.p, cpu, n)
}

func (e *unikernelEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("unikernel: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *unikernelEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

// grapheneEnv: the Graphene LibOS on a Linux host; I/O reaches the host
// kernel, and multi-process containers coordinate via IPC.
type grapheneEnv struct {
	p *Proc
	r *Runtime
}

func (e *grapheneEnv) Syscall(cpu *arch.CPU) arch.Action {
	n := syscalls.No(cpu.Regs[arch.RAX])
	cpu.Clock.Advance(e.r.Costs.GrapheneSyscall)
	k := syscalls.Classify(n)
	if k == syscalls.KindIO || k == syscalls.KindWait {
		cpu.Clock.Advance(e.r.Costs.GrapheneHostForward)
		e.r.Host.SyscallEntry(cpu.Clock)
	}
	cpu.Clock.Advance(e.r.GrapheneIPCCost(n, e.p.C.Procs))
	cpu.Clock.Advance(cycles.Cycles(syscalls.HandlerCycles(k)))
	return doSemantics(e.r, e.p, cpu, n)
}

func (e *grapheneEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	cpu.Fault = fmt.Errorf("graphene: call into unmapped vsyscall page %#x", entry)
	return arch.ActionExit
}

func (e *grapheneEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }
