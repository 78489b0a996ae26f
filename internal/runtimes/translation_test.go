package runtimes

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

func TestXContainerFetchIsTranslated(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("tx", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	text := arch.NewAssembler(arch.UserTextBase).
		SyscallN(uint32(syscalls.Getpid)).Hlt().MustAssemble()
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CPU.AS == nil || p.CPU.TLB == nil {
		t.Fatal("X-Container process must execute behind translation")
	}
	// The page table was validated and registered with the hypervisor.
	if len(c.Dom.Spaces) != 1 {
		t.Fatalf("registered spaces = %d, want 1", len(c.Dom.Spaces))
	}
	if err := p.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	// At least the first fetch page-crossed and missed.
	if p.CPU.TLB.Stats.Misses == 0 {
		t.Error("no TLB activity recorded")
	}
	// The vsyscall page mapping carries the global bit (§4.3).
	vs := arch.VsyscallBase / arch.PageSize
	pte, ok := p.CPU.AS.Lookup(vs)
	if !ok || !pte.Global {
		t.Errorf("vsyscall mapping = %+v, %v; want global", pte, ok)
	}
	// User text pages must not be global.
	if pte, ok := p.CPU.AS.Lookup(arch.UserTextBase / arch.PageSize); !ok || pte.Global {
		t.Errorf("text mapping = %+v, %v; want non-global", pte, ok)
	}
}

func TestFetchFromUnmappedPageFaults(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("escape", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// A jump far past the mapped image: the text segment is larger than
	// the mapped pages? Build text whose jump target lies beyond the
	// final mapped page by constructing a text with trailing bytes past
	// the mapped range: simplest is to jump backward below the base.
	a := arch.NewAssembler(arch.UserTextBase)
	a.Jmp("way-up")
	for i := 0; i < 2*int(arch.PageSize); i++ {
		a.Nop()
	}
	a.Label("way-up")
	a.Hlt()
	text := a.MustAssemble()
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	// Unmap the last page behind the process's back (a hostile guest
	// kernel shrinking its own mappings must fault itself, not escape).
	last := text.End() / arch.PageSize
	p.CPU.AS.Unmap(last)
	err = p.CPU.Run(100_000)
	if err == nil && p.CPU.Fault == nil {
		t.Fatal("fetch from unmapped page must fault")
	}
}

func TestDockerFetchUntranslated(t *testing.T) {
	// Host-shared runtimes model paging in the host kernel; tier-1
	// processes run without a hypervisor-validated table.
	rt := MustNew(Config{Kind: Docker, Patched: true, Cloud: LocalCluster})
	c, _ := rt.NewContainer("d", 1, false)
	text := arch.NewAssembler(arch.UserTextBase).Hlt().MustAssemble()
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CPU.AS != nil {
		t.Error("Docker tier-1 process should not carry a hypervisor page table")
	}
}

func TestImageLargerThanDomainMemoryRejected(t *testing.T) {
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	a := arch.NewAssembler(arch.UserTextBase)
	for i := 0; i < 3*int(arch.PageSize); i++ {
		a.Nop()
	}
	a.Hlt()
	text := a.MustAssemble() // four text pages, plus the vsyscall page
	// Balloon each domain down to fewer frames than the image maps:
	// far fewer, and exactly its text with no room for the vsyscall page.
	// A 5-page domain fits it exactly.
	for _, pages := range []int{1, 4, 5} {
		c, err := rt.NewContainer("small", 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Hyper.BalloonAdjust(c.Dom, pages-c.Dom.MemoryPages); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.StartProcess(c, text, &cycles.Clock{}); (err == nil) != (pages == 5) {
			t.Fatalf("5-page image in a %d-page domain: err = %v", pages, err)
		}
	}
}
