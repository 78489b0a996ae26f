package libos

import (
	"testing"

	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/linuxsim"
	"xcontainers/internal/syscalls"
)

// libosEnv wires a CPU directly to one LibOS instance (no hypervisor),
// for unit-testing the vsyscall entry paths.
type libosEnv struct {
	l    *LibOS
	proc *linuxsim.Process
}

func (e *libosEnv) Syscall(cpu *arch.CPU) arch.Action {
	return e.l.HandleTrappedSyscall(cpu, e.proc)
}
func (e *libosEnv) VsyscallCall(cpu *arch.CPU, entry uint64) arch.Action {
	return e.l.HandleVsyscall(cpu, entry, e.proc)
}
func (e *libosEnv) InvalidOpcode(cpu *arch.CPU) bool { return false }

func newEnv(t *testing.T, text *arch.Text, cfg Config) (*LibOS, *arch.CPU) {
	t.Helper()
	l := New(nil, cfg)
	proc := l.Services.NewProcess(64)
	cpu := arch.NewCPU(text, &libosEnv{l: l, proc: proc}, &cycles.Clock{}, &cycles.Default)
	return l, cpu
}

func TestVsyscallDirectEntry(t *testing.T) {
	// A pre-patched binary: callq *entry(getpid).
	text := arch.NewAssembler(arch.UserTextBase).
		CallAbs(abom.EntryAddr(syscalls.Getpid)).
		Hlt().MustAssemble()
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[arch.RAX] == 0 {
		t.Error("getpid result missing")
	}
	if l.Stats.FunctionCallSyscalls != 1 || l.Stats.TrappedSyscalls != 0 {
		t.Errorf("stats = %+v", l.Stats)
	}
	if cpu.Regs[arch.RSP] != arch.UserStackTop {
		t.Error("stack not balanced after vsyscall return")
	}
}

func TestVsyscallGenericDispatcher(t *testing.T) {
	// Slot 0 reads the number from RAX.
	text := arch.NewAssembler(arch.UserTextBase).
		MovR32(arch.RAX, uint32(syscalls.Getuid)).
		CallAbs(abom.GenericDispatchAddr()).
		Hlt().MustAssemble()
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[arch.RAX] != 0 { // getuid == 0 (root)
		t.Errorf("rax = %d", cpu.Regs[arch.RAX])
	}
	if l.Stats.FunctionCallSyscalls != 1 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestVsyscallStackDispatcher(t *testing.T) {
	// The Go syscall.Syscall shape after patching: the stub that loaded
	// 0x8(%rsp) has become callq *0xc08, so the number sits at
	// 0x10(%rsp) from the dispatcher's frame.
	a := arch.NewAssembler(arch.UserTextBase)
	a.PushImm(uint32(syscalls.Getpid))
	a.Call("stub")
	a.PopRax() // pop the argument; result was in RAX before — move first
	a.Hlt()
	a.Label("stub")
	a.CallAbs(abom.StackDispatchAddr())
	a.Ret()
	text := a.MustAssemble()
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if l.Stats.FunctionCallSyscalls != 1 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestVsyscallBadEntryFaults(t *testing.T) {
	text := arch.NewAssembler(arch.UserTextBase).
		CallAbs(uint32(arch.VsyscallBase&0xffffffff) + 12). // unaligned
		Hlt().MustAssemble()
	_, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err == nil {
		t.Fatal("bad vsyscall entry must fault")
	}
}

func TestReturnSkipOverLeftoverSyscall(t *testing.T) {
	// Phase-1 9-byte state: callq followed by the leftover syscall.
	// The handler must skip the syscall on return.
	var code []byte
	code = append(code, arch.EncCallAbs(abom.EntryAddr(syscalls.Getpid))...)
	code = append(code, arch.EncSyscall()...)
	code = append(code, arch.EncHlt()...)
	text := arch.NewText(arch.UserTextBase, code)
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if l.Stats.ReturnSkips != 1 {
		t.Errorf("return skips = %d, want 1", l.Stats.ReturnSkips)
	}
	if l.Stats.TrappedSyscalls != 0 {
		t.Error("the leftover syscall must never execute")
	}
}

func TestReturnSkipOverJmpBack(t *testing.T) {
	// Phase-2 state: callq followed by jmp -9. Without the skip this
	// would loop forever.
	var code []byte
	code = append(code, arch.EncCallAbs(abom.EntryAddr(syscalls.Getpid))...)
	code = append(code, arch.EncJmpRel8(-9)...)
	code = append(code, arch.EncHlt()...)
	text := arch.NewText(arch.UserTextBase, code)
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if !cpu.Halted {
		t.Fatal("program did not halt")
	}
	if l.Stats.ReturnSkips != 1 {
		t.Errorf("return skips = %d, want 1", l.Stats.ReturnSkips)
	}
}

func TestTrappedSyscallPath(t *testing.T) {
	text := arch.NewAssembler(arch.UserTextBase).
		SyscallN(uint32(syscalls.Getpid)).
		Hlt().MustAssemble()
	l, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if l.Stats.TrappedSyscalls != 1 || l.Stats.FunctionCallSyscalls != 0 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestModeFlipsDuringHandler(t *testing.T) {
	// HandleVsyscall must run its body on the kernel stack (RSP mode
	// bit set) and restore user mode before returning. We observe the
	// invariant through the fault check inside HandleVsyscall plus the
	// final state here.
	text := arch.NewAssembler(arch.UserTextBase).
		CallAbs(abom.EntryAddr(syscalls.Getpid)).
		Hlt().MustAssemble()
	_, cpu := newEnv(t, text, DefaultConfig())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.InGuestKernelMode() {
		t.Fatal("CPU left in guest kernel mode")
	}
}

func TestExitSemantics(t *testing.T) {
	text := arch.NewAssembler(arch.UserTextBase).
		MovR32(arch.RDI, 7).
		SyscallN(uint32(syscalls.Exit)).
		Hlt().MustAssemble()
	l, cpu := newEnv(t, text, DefaultConfig())
	proc := cpu.Env.(*libosEnv).proc
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if !cpu.Halted || !proc.Exited || proc.Status != 7 {
		t.Fatalf("exit not applied: halted=%v exited=%v status=%d", cpu.Halted, proc.Exited, proc.Status)
	}
	_ = l
}

func TestForkChargesPTUpdates(t *testing.T) {
	// Fork through the lightweight path must charge page-table
	// hypercalls (the §5.4 penalty) — compare against getpid.
	run := func(n syscalls.No) cycles.Cycles {
		text := arch.NewAssembler(arch.UserTextBase).
			CallAbs(abom.EntryAddr(n)).
			Hlt().MustAssemble()
		_, cpu := newEnv(t, text, DefaultConfig())
		if err := cpu.Run(100); err != nil {
			t.Fatal(err)
		}
		return cpu.Clock.Now()
	}
	if run(syscalls.Fork) <= 10*run(syscalls.Getpid) {
		t.Error("fork must be far more expensive than getpid under X-LibOS")
	}
}

func TestSMPConfigDiscount(t *testing.T) {
	smp := New(nil, Config{SMP: true})
	up := New(nil, Config{SMP: false})
	c1, c2 := &cycles.Clock{}, &cycles.Clock{}
	smp.handlerBody(c1, syscalls.Read)
	up.handlerBody(c2, syscalls.Read)
	if c2.Now() >= c1.Now() {
		t.Error("uniprocessor kernel must have cheaper handlers (§3.2)")
	}
}

func TestModules(t *testing.T) {
	l := New(nil, Config{SMP: true, Modules: []string{"ipvs"}})
	if !l.HasModule("ipvs") {
		t.Fatal("boot-time module missing")
	}
	if l.HasModule("nf_tables") {
		t.Fatal("unexpected module")
	}
	l.LoadModule("nf_tables")
	l.LoadModule("nf_tables") // idempotent
	if !l.HasModule("nf_tables") || l.Stats.ModulesLoaded != 2 {
		t.Fatalf("modules loaded = %d", l.Stats.ModulesLoaded)
	}
}

func TestBootCycles(t *testing.T) {
	slow := BootCycles(true)
	fast := BootCycles(false)
	if slow.Seconds() < 2.5 || slow.Seconds() > 3.5 {
		t.Errorf("xl boot = %v, want ≈3 s (§4.5)", slow)
	}
	if fast.Seconds() > 0.25 {
		t.Errorf("fast boot = %v, want ≈184 ms", fast)
	}
}
