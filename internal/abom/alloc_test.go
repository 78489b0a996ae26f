package abom

// Allocation regression guards for the online patcher's probe paths.
// After warm-up every converted site stops trapping, but unrecognized
// sites (MySQL/libpthread shapes, §5.2) trap on *every* syscall, and
// each trap probes the bytes around the site. Those probes read
// through caller-owned buffers (Text.FetchInto / Peek8) and must not
// allocate — a regression here taxes every forwarded syscall of every
// tier-1 experiment.

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/syscalls"
)

// requireZeroAllocs runs fn runs times, after a warm-up of one whole
// batch, and requires the batch to allocate nothing. It reads the exact
// total: AllocsPerRun(runs, fn) integer-divides, so it would pass a
// path that allocates fewer than runs times.
func requireZeroAllocs(t *testing.T, name string, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			fn()
		}
	}); n != 0 {
		t.Errorf("%s: %v allocations in %d steady-state runs, want 0", name, n, runs)
	}
}

// TestProbeUnrecognizedSiteAllocFree: the forever-trapping gapped
// wrapper — ABOM inspects and declines, allocation-free.
func TestProbeUnrecognizedSiteAllocFree(t *testing.T) {
	a := arch.NewAssembler(arch.UserTextBase)
	a.MovR32(arch.RAX, uint32(syscalls.Getpid))
	a.Nop() // gap breaks every pattern
	a.Syscall()
	a.Hlt()
	text := a.MustAssemble()
	sysRIP := arch.UserTextBase + 6
	ab := New()

	requireZeroAllocs(t, "unrecognized probe", 100, func() {
		if res := ab.OnSyscall(text, sysRIP, uint64(syscalls.Getpid)); res != PatchNone {
			t.Fatalf("probe patched: %v", res)
		}
	})
}

// TestProbePatchedSiteAllocFree: a re-trap at an already-converted
// site (the idempotence path) must also allocate nothing.
func TestProbePatchedSiteAllocFree(t *testing.T) {
	text, sysRIP := caseOneSite(uint32(syscalls.Getpid))
	ab := New()
	if res := ab.OnSyscall(text, sysRIP, uint64(syscalls.Getpid)); res != Patched7 {
		t.Fatalf("setup patch failed: %v", res)
	}
	requireZeroAllocs(t, "patched-site probe", 100, func() {
		if res := ab.OnSyscall(text, sysRIP, uint64(syscalls.Getpid)); res != PatchNone {
			t.Fatalf("second patch at converted site: %v", res)
		}
	})
}

// TestFixupProbeAllocFree: the invalid-opcode fixup's byte checks,
// both on the repairing and the refusing path.
func TestFixupProbeAllocFree(t *testing.T) {
	text, sysRIP := caseOneSite(uint32(syscalls.Getpid))
	ab := New()
	if res := ab.OnSyscall(text, sysRIP, uint64(syscalls.Getpid)); res != Patched7 {
		t.Fatalf("setup patch failed: %v", res)
	}
	requireZeroAllocs(t, "fixup probe", 100, func() {
		if _, ok := ab.FixupInvalidOpcode(text, sysRIP); !ok {
			t.Fatal("fixup refused at patched site")
		}
		if _, ok := ab.FixupInvalidOpcode(text, sysRIP-5); ok {
			t.Fatal("fixup accepted non-60ff bytes")
		}
	})
}
