package xkernel

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
)

func newXK(t *testing.T) *Kernel {
	t.Helper()
	return New(Config{Mode: ModeXKernel})
}

// frameOf returns the i-th frame d holds, in id order.
func frameOf(t *testing.T, k *Kernel, d *Domain, i int) mem.FrameID {
	t.Helper()
	f, ok := k.Frames.Nth(d.Owner, i)
	if !ok {
		t.Fatalf("domain %q holds no frame %d", d.Name, i)
	}
	return f
}

func TestDomainLifecycle(t *testing.T) {
	k := newXK(t)
	d, err := k.CreateDomain("c1", DomXContainer, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.Domains() != 1 || k.Frames.InUse() != 64 || d.MemoryPages != 64 {
		t.Fatalf("domains=%d frames=%d pages=%d", k.Domains(), k.Frames.InUse(), d.MemoryPages)
	}
	if err := k.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if k.Domains() != 0 || k.Frames.InUse() != 0 {
		t.Fatal("destroy must release all frames")
	}
	if err := k.DestroyDomain(d.ID); err == nil {
		t.Fatal("double destroy must fail")
	}
}

func TestXContainerDomainRequiresXKernelMode(t *testing.T) {
	k := New(Config{Mode: ModeXenPV})
	if _, err := k.CreateDomain("c", DomXContainer, 4, 1); err == nil {
		t.Fatal("stock Xen must not host X-Container domains")
	}
}

func TestMemoryExhaustion(t *testing.T) {
	k := New(Config{Mode: ModeXKernel, MachineFrames: 100})
	if _, err := k.CreateDomain("big", DomXContainer, 80, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateDomain("big2", DomXContainer, 80, 1); err == nil {
		t.Fatal("second domain must not fit")
	}
	// Failed creation must not leak frames.
	if got := k.Frames.InUse(); got != 80 {
		t.Fatalf("frames in use = %d, want 80 (no leak)", got)
	}
}

func TestIsolationCrossDomainMappingRejected(t *testing.T) {
	k := newXK(t)
	d1, _ := k.CreateDomain("c1", DomXContainer, 16, 1)
	d2, _ := k.CreateDomain("c2", DomXContainer, 16, 1)

	clk := &cycles.Clock{}
	as := mem.NewAddressSpace(d1.Owner)

	// Mapping d1's own frame is fine.
	if err := k.PTUpdate(clk, d1, as, 100, mem.PTE{Frame: frameOf(t, k, d1, 0), User: true}); err != nil {
		t.Fatalf("own-frame mapping rejected: %v", err)
	}
	// Mapping d2's frame from d1 must be rejected and not installed.
	if err := k.PTUpdate(clk, d1, as, 101, mem.PTE{Frame: frameOf(t, k, d2, 0), User: true}); err == nil {
		t.Fatal("cross-domain mapping must be rejected")
	}
	if _, ok := as.Lookup(101); ok {
		t.Fatal("rejected mapping must not be installed")
	}
	if k.Stats.PTViolations != 1 {
		t.Errorf("violations = %d, want 1", k.Stats.PTViolations)
	}
}

func TestRegisterAddressSpaceValidation(t *testing.T) {
	k := newXK(t)
	d1, _ := k.CreateDomain("c1", DomXContainer, 16, 1)
	d2, _ := k.CreateDomain("c2", DomXContainer, 16, 1)

	good := mem.NewAddressSpace(d1.Owner)
	good.Map(1, mem.PTE{Frame: frameOf(t, k, d1, 0)})
	if err := k.RegisterAddressSpace(d1, good); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}

	evil := mem.NewAddressSpace(d1.Owner)
	evil.Map(1, mem.PTE{Frame: frameOf(t, k, d2, 3)})
	if err := k.RegisterAddressSpace(d1, evil); err == nil {
		t.Fatal("space mapping foreign frames must be rejected")
	}
}

func TestGlobalBitAppliedToKernelHalf(t *testing.T) {
	// §4.3: under the X-Kernel, LibOS (kernel-half) mappings get the
	// global bit; user-half mappings do not.
	k := newXK(t)
	d, _ := k.CreateDomain("c", DomXContainer, 16, 1)
	clk := &cycles.Clock{}
	as := mem.NewAddressSpace(d.Owner)

	userPage := arch.UserTextBase / mem.PageSize
	kernPage := arch.KernelSpaceStart/mem.PageSize + 42
	if err := k.PTUpdate(clk, d, as, userPage, mem.PTE{Frame: frameOf(t, k, d, 0), User: true}); err != nil {
		t.Fatal(err)
	}
	if err := k.PTUpdate(clk, d, as, kernPage, mem.PTE{Frame: frameOf(t, k, d, 1)}); err != nil {
		t.Fatal(err)
	}
	u, _ := as.Lookup(userPage)
	kk, _ := as.Lookup(kernPage)
	if u.Global {
		t.Error("user mapping must not be global")
	}
	if !kk.Global {
		t.Error("LibOS mapping must be global under the X-Kernel")
	}

	// Under stock Xen PV the global bit stays off even for kernel half.
	pv := New(Config{Mode: ModeXenPV})
	dpv, _ := pv.CreateDomain("vm", DomPVGuest, 16, 1)
	aspv := mem.NewAddressSpace(dpv.Owner)
	if err := pv.PTUpdate(clk, dpv, aspv, kernPage, mem.PTE{Frame: frameOf(t, pv, dpv, 0)}); err != nil {
		t.Fatal(err)
	}
	g, _ := aspv.Lookup(kernPage)
	if g.Global {
		t.Error("stock PV must not set the global bit")
	}
}

func TestSyscallForwardCosts(t *testing.T) {
	pv := New(Config{Mode: ModeXenPV})
	xk := newXK(t)
	clkPV, clkX := &cycles.Clock{}, &cycles.Clock{}
	pv.ForwardSyscallPV(clkPV)
	xk.ForwardSyscallX(clkX, nil, 0, 0)
	if clkX.Now() >= clkPV.Now() {
		t.Errorf("X forwarding (%d) must be cheaper than PV forwarding (%d): no address-space switch", clkX.Now(), clkPV.Now())
	}
}

func TestXPTITaxesTraps(t *testing.T) {
	plain := New(Config{Mode: ModeXenPV})
	patched := New(Config{Mode: ModeXenPV, XPTI: true})
	c1, c2 := &cycles.Clock{}, &cycles.Clock{}
	plain.ForwardSyscallPV(c1)
	patched.ForwardSyscallPV(c2)
	if c2.Now() <= c1.Now() {
		t.Error("XPTI must tax hypervisor traps")
	}
}

func TestAttackSurfaceComparison(t *testing.T) {
	x, l := XKernelSurface(), LinuxSurface()
	if x.Interfaces >= l.Interfaces/5 {
		t.Errorf("X-Kernel surface (%d) should be far below Linux's (%d)", x.Interfaces, l.Interfaces)
	}
	if x.TCBKLoC >= l.TCBKLoC {
		t.Error("X-Kernel TCB must be smaller")
	}
	if x.SharedState || !l.SharedState {
		t.Error("sharing flags wrong")
	}
	if int(NumHypercalls) != x.Interfaces {
		t.Errorf("surface (%d) must equal the hypercall table size (%d)", x.Interfaces, NumHypercalls)
	}
	// Every hypercall has a name.
	for h := Hypercall(0); h < NumHypercalls; h++ {
		if h.String() == "" || h.String() == "hypercall(?)" {
			t.Errorf("hypercall %d unnamed", h)
		}
	}
}
