package runtimes

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
	"xcontainers/internal/syscalls"
)

// Failure-injection suite: each test is an attack on the isolation
// boundary the architecture claims to enforce (§3.4's threat model).

func TestAttackCrossContainerFrameMapping(t *testing.T) {
	// A malicious guest kernel submits a page table mapping another
	// container's frame. The X-Kernel must reject it.
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	victim, err := rt.NewContainer("victim", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := rt.NewContainer("attacker", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	evil := mem.NewAddressSpace(attacker.Dom.Owner)
	clk := &cycles.Clock{}
	target, _ := rt.Hyper.Frames.Nth(victim.Dom.Owner, 0)
	err = rt.Hyper.PTUpdate(clk, attacker.Dom, evil, 0x1000, mem.PTE{
		Frame: target, User: true, Writable: true,
	})
	if err == nil {
		t.Fatal("cross-container mapping accepted: isolation broken")
	}
	if _, mapped := evil.Lookup(0x1000); mapped {
		t.Fatal("rejected mapping must not be installed")
	}
	if rt.Hyper.Stats.PTViolations == 0 {
		t.Fatal("violation not recorded")
	}
}

func TestAttackFreedFrameReuse(t *testing.T) {
	// After a container is destroyed, an attacker must not be able to
	// map its (now freed) frames, and recreated containers get frames
	// with fresh ownership.
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	victim, _ := rt.NewContainer("victim", 1, false)
	stolen, _ := rt.Hyper.Frames.Nth(victim.Dom.Owner, 0)
	if err := rt.Destroy(victim); err != nil {
		t.Fatal(err)
	}
	attacker, _ := rt.NewContainer("attacker", 1, false)
	evil := mem.NewAddressSpace(attacker.Dom.Owner)
	err := rt.Hyper.PTUpdate(&cycles.Clock{}, attacker.Dom, evil, 0x2000, mem.PTE{Frame: stolen, User: true})
	if err == nil {
		t.Fatal("mapping a freed foreign frame must fail (no owner)")
	}
}

func TestAttackVsyscallPageOutsideXContainers(t *testing.T) {
	// A binary pre-patched for X-Containers calls into the vsyscall
	// page. Under every other runtime that page is unmapped: the call
	// must fault, never silently execute.
	text := arch.NewAssembler(arch.UserTextBase).
		CallAbs(0xff600000 + 8).
		Hlt().MustAssemble()
	for _, kind := range []Kind{Docker, GVisor, XenContainer, ClearContainer, Unikernel, Graphene} {
		rt := MustNew(Config{Kind: kind, Patched: true, Cloud: LocalCluster})
		c, err := rt.NewContainer("v", 1, false)
		if err != nil {
			t.Fatal(err)
		}
		p, err := rt.StartProcess(c, arch.NewText(text.Base, text.Bytes()), &cycles.Clock{})
		if err != nil {
			t.Fatal(err)
		}
		_ = p.CPU.Run(100)
		if p.CPU.Fault == nil {
			t.Errorf("%v: vsyscall call did not fault", kind)
		}
	}
}

func TestAttackUserWriteToText(t *testing.T) {
	// User-mode stores to write-protected text must fail; only the
	// kernel's cmpxchg path (CR0.WP cleared) may patch.
	text := arch.NewAssembler(arch.UserTextBase).Hlt().MustAssemble()
	if err := text.Write(arch.UserTextBase, []byte{0x90}); err == nil {
		t.Fatal("user write to protected text succeeded")
	}
}

func TestFilesystemIsolationStructure(t *testing.T) {
	// X-Containers: private filesystems. Docker: one shared kernel's
	// filesystem (the paper's Fig. 1 isolation contrast).
	xc := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	a, _ := xc.NewContainer("a", 1, false)
	b, _ := xc.NewContainer("b", 1, false)
	a.Svc.FS.Create("/secret", 1, 0600)
	if b.Svc.FS.Exists("/secret") {
		t.Fatal("X-Container filesystem leaked across containers")
	}

	dk := MustNew(Config{Kind: Docker, Patched: true, Cloud: LocalCluster})
	da, _ := dk.NewContainer("a", 1, false)
	db, _ := dk.NewContainer("b", 1, false)
	da.Svc.FS.Create("/shared-kernel-state", 1, 0600)
	if !db.Svc.FS.Exists("/shared-kernel-state") {
		t.Fatal("Docker containers must share kernel state in this model")
	}
}

func TestAttackInvalidSyscallNumber(t *testing.T) {
	// Garbage syscall numbers must be handled as errors, not crashes,
	// under every runtime.
	text := arch.NewAssembler(arch.UserTextBase).
		SyscallN(400). // > MaxNo
		Hlt().MustAssemble()
	for _, kind := range []Kind{Docker, XContainer, GVisor} {
		rt := MustNew(Config{Kind: kind, Patched: true, Cloud: LocalCluster})
		c, _ := rt.NewContainer("x", 1, false)
		p, err := rt.StartProcess(c, arch.NewText(text.Base, text.Bytes()), &cycles.Clock{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CPU.Run(100); err != nil {
			t.Errorf("%v: invalid syscall crashed the kernel model: %v", kind, err)
		}
		if p.CPU.Regs[arch.RAX] != ^uint64(0) {
			t.Errorf("%v: invalid syscall returned %d, want -1", kind, p.CPU.Regs[arch.RAX])
		}
	}
}

func TestAttackABOMCannotPatchAcrossTextEnd(t *testing.T) {
	// A syscall as the very first instruction has no preceding mov;
	// ABOM must not read out of bounds or patch.
	text := arch.NewText(arch.UserTextBase, append([]byte{0x0f, 0x05}, 0xf4))
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, _ := rt.NewContainer("edge", 1, false)
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	p.CPU.Regs[arch.RAX] = uint64(syscalls.Getpid)
	if err := p.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	if rt.Hyper.ABOM.Stats.Patched7Case1+rt.Hyper.ABOM.Stats.Patched9Phase1 != 0 {
		t.Fatal("ABOM patched a site with no wrapper prefix")
	}
}

func TestMemoryExhaustionIsContained(t *testing.T) {
	// One container exhausting machine memory must fail cleanly without
	// disturbing existing containers.
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster,
		MachineFrames: 128 * 256 * 2}) // room for two 128 MB containers
	a, err := rt.NewContainer("a", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewContainer("b", 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewContainer("c", 1, false); err == nil {
		t.Fatal("third container must not fit")
	}
	// a is still intact.
	if _, ok := rt.Hyper.Frames.Nth(a.Dom.Owner, rt.MemoryPagesPerInstance(false)-1); !ok {
		t.Fatal("existing container lost frames")
	}
}
