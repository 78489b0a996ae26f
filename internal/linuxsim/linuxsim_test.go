package linuxsim

import (
	"bytes"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
	"xcontainers/internal/syscalls"
)

func TestServicesProcessLifecycle(t *testing.T) {
	s := NewServices()
	p := s.NewProcess(100)
	if p.PID != 1 {
		t.Fatalf("first pid = %d", p.PID)
	}
	child := s.Fork(p)
	if child.PID == p.PID || child.Parent != p.PID || child.Pages != p.Pages {
		t.Fatalf("fork wrong: %+v", child)
	}
	if s.Processes() != 2 {
		t.Fatalf("processes = %d", s.Processes())
	}
	s.Exit(child, 0)
	if s.Processes() != 1 {
		t.Fatalf("processes after exit = %d", s.Processes())
	}
}

func TestServicesSyscallSemantics(t *testing.T) {
	s := NewServices()
	p := s.NewProcess(10)

	if pid, _ := s.Do(p, syscalls.Getpid, 0, 0, 0); pid != uint64(p.PID) {
		t.Errorf("getpid = %d", pid)
	}
	if uid, _ := s.Do(p, syscalls.Getuid, 0, 0, 0); uid != 0 {
		t.Errorf("getuid = %d (containers run as root)", uid)
	}
	// umask returns the previous mask.
	if old, _ := s.Do(p, syscalls.Umask, 0777, 0, 0); old != 0022 {
		t.Errorf("first umask = %o", old)
	}
	if old, _ := s.Do(p, syscalls.Umask, 0022, 0, 0); old != 0777 {
		t.Errorf("second umask = %o", old)
	}
	// dup(0)/close round trip on seeded stdio.
	fd, _ := s.Do(p, syscalls.Dup, 0, 0, 0)
	if int64(fd) < 3 {
		t.Fatalf("dup = %d", fd)
	}
	if ret, _ := s.Do(p, syscalls.Close, fd, 0, 0); ret != 0 {
		t.Errorf("close = %d", ret)
	}
	// close of a bad fd returns -1, not an error (errno style).
	if ret, _ := s.Do(p, syscalls.Close, 999, 0, 0); ret != ^uint64(0) {
		t.Errorf("bad close = %d", ret)
	}
	// open via registered path handle.
	id := s.RegisterPath("/etc/hosts")
	s.FS.Create("/etc/hosts", []byte("localhost"), 0644)
	fd, _ = s.Do(p, syscalls.Open, id, 0, 0)
	if int64(fd) < 3 {
		t.Fatalf("open = %d", fd)
	}
	if n, _ := s.Do(p, syscalls.Read, fd, 0, 5); n != 5 {
		t.Errorf("read = %d", n)
	}
	// pipe returns the read end; write end is r+1.
	r, _ := s.Do(p, syscalls.Pipe, 0, 0, 0)
	if n, _ := s.Do(p, syscalls.Write, r+1, 0, 64); n != 64 {
		t.Errorf("pipe write = %d", n)
	}
	if n, _ := s.Do(p, syscalls.Read, r, 0, 64); n != 64 {
		t.Errorf("pipe read = %d", n)
	}
}

func TestReadWriteHugeCountIsError(t *testing.T) {
	s := NewServices()
	p := s.NewProcess(10)
	r, _ := s.Do(p, syscalls.Pipe, 0, 0, 0)
	id := s.RegisterPath("/f")
	fd, _ := s.Do(p, syscalls.Open, id, 0, 0)
	for _, c := range []struct {
		n  syscalls.No
		fd uint64
	}{{syscalls.Read, r}, {syscalls.Write, r + 1}, {syscalls.Read, fd}, {syscalls.Write, fd}} {
		if ret, err := s.Do(p, c.n, c.fd, 0, ^uint64(0)); ret != ^uint64(0) || err != nil {
			t.Errorf("%v(fd %d, count 2^64-1) = %d, %v; want -1", c.n, c.fd, ret, err)
		}
	}
	if n, _ := s.FS.Size("/f"); n != 0 {
		t.Errorf("rejected write grew the file to %d bytes", n)
	}
}

func TestWriteTransfersZeros(t *testing.T) {
	s := NewServices()
	p := s.NewProcess(10)
	// Fill the process's read buffer with non-zero bytes first.
	s.FS.Create("/src", []byte("nonzero payload"), 0644)
	src, _ := s.Do(p, syscalls.Open, s.RegisterPath("/src"), 0, 0)
	s.Do(p, syscalls.Read, src, 0, 15)
	fd, _ := s.Do(p, syscalls.Open, s.RegisterPath("/out"), 0, 0)
	for _, size := range []uint64{64, 100 << 10} { // from the shared source, and past it
		if n, _ := s.Do(p, syscalls.Write, fd, 0, size); n != size {
			t.Fatalf("write(%d) = %d", size, n)
		}
	}
	tbl := s.NewProcess(1).FDs
	rd, _ := tbl.Open("/out")
	buf := make([]byte, 200<<10)
	if n, _ := tbl.Read(rd, buf); n != 64+100<<10 || !bytes.Equal(buf[:n], make([]byte, n)) {
		t.Fatalf("read back %d bytes, want %d zeros", n, 64+100<<10)
	}
}

func TestKernelSyscallEntryCosts(t *testing.T) {
	plain := NewKernel(nil, false)
	patched := NewKernel(nil, true)
	c1, c2 := &cycles.Clock{}, &cycles.Clock{}
	plain.SyscallEntry(c1)
	patched.SyscallEntry(c2)
	if c2.Now() <= c1.Now() {
		t.Error("KPTI must tax syscall entry")
	}
	if plain.Stats.Syscalls != 1 || patched.Stats.Syscalls != 1 {
		t.Error("stats not counted")
	}
}

func TestKernelContextSwitchGlobalBit(t *testing.T) {
	native := NewKernel(nil, false) // global bit on
	pv := NewPVKernel(nil, false)   // global bit off

	as := mem.NewAddressSpace(1)
	as.Map(arch0(), mem.PTE{Frame: 1, Global: true})
	tlbN, tlbP := mem.NewTLB(8), mem.NewTLB(8)
	tlbN.Lookup(as, arch0())
	tlbP.Lookup(as, arch0())

	c1, c2 := &cycles.Clock{}, &cycles.Clock{}
	native.ContextSwitch(c1, tlbN)
	pv.ContextSwitch(c2, tlbP)
	if c2.Now() <= c1.Now() {
		t.Error("no-global context switch must cost more")
	}
	if tlbN.Len() != 1 {
		t.Error("native kernel keeps global entries on switch")
	}
	if tlbP.Len() != 0 {
		t.Error("PV kernel must flush everything on switch")
	}
}

func arch0() uint64 { return 0xffff880000000 / mem.PageSize }

func TestForkExecPageCounts(t *testing.T) {
	if ForkPages(512) <= 0 || ExecPages(512) <= ForkPages(512) {
		t.Error("exec must touch more page-table entries than fork")
	}
	// Monotone in image size.
	if ForkPages(1024) <= ForkPages(128) {
		t.Error("fork cost must grow with image size")
	}
}

func TestPathRegistry(t *testing.T) {
	s := NewServices()
	a := s.RegisterPath("/a")
	b := s.RegisterPath("/b")
	if a == b {
		t.Fatal("handles must be unique")
	}
	if p, ok := s.PathOf(a); !ok || p != "/a" {
		t.Fatalf("PathOf = %q, %v", p, ok)
	}
	if _, ok := s.PathOf(999); ok {
		t.Fatal("unknown handle must miss")
	}
}
