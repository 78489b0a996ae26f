package linuxsim

import (
	"testing"

	"xcontainers/internal/cycles"
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
	s.FS.Create("/etc/hosts", 9, 0644)
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

// TestWriteReadBackCounts: what write(2) puts in a file, read(2) gets
// back, counted from a descriptor that did not write it.
func TestWriteReadBackCounts(t *testing.T) {
	s := NewServices()
	p := s.NewProcess(10)
	fd, _ := s.Do(p, syscalls.Open, s.RegisterPath("/out"), 0, 0)
	for _, size := range []uint64{64, 100 << 10} {
		if n, _ := s.Do(p, syscalls.Write, fd, 0, size); n != size {
			t.Fatalf("write(%d) = %d", size, n)
		}
	}
	q := s.NewProcess(1)
	rd, _ := s.Do(q, syscalls.Open, s.RegisterPath("/out"), 0, 0)
	if n, _ := s.Do(q, syscalls.Read, rd, 0, 200<<10); n != 64+100<<10 {
		t.Fatalf("read back %d bytes, want %d", n, 64+100<<10)
	}
	if n, _ := s.Do(q, syscalls.Read, rd, 0, 1); n != 0 {
		t.Fatalf("read past the end = %d, want 0", n)
	}
}

// TestHugeCountsAreBounded: any binary can pass read(2) and write(2) a
// count in the tens of gigabytes. The calls must return promptly with
// the byte counts a real kernel would give, and must not allocate in
// proportion to the count.
func TestHugeCountsAreBounded(t *testing.T) {
	const huge = 1 << 36
	s := NewServices()
	p := s.NewProcess(10)
	s.FS.Create("/big", 4<<20, 0644)
	src, _ := s.Do(p, syscalls.Open, s.RegisterPath("/big"), 0, 0)
	dst, _ := s.Do(p, syscalls.Open, s.RegisterPath("/out"), 0, 0)
	r, _ := s.Do(p, syscalls.Pipe, 0, 0, 0)
	calls := []struct {
		n        syscalls.No
		fd, want uint64
	}{
		{syscalls.Write, 1, huge},         // stdout: /dev/null
		{syscalls.Write, dst, huge},       // grows /out to 64 GiB
		{syscalls.Read, src, 4 << 20},     // all of /big
		{syscalls.Write, r + 1, 64 << 10}, // fills the pipe
		{syscalls.Read, r, 64 << 10},      // drains it
		{syscalls.Read, src, 0},           // at EOF
	}
	for _, c := range calls {
		if got, err := s.Do(p, c.n, c.fd, 0, huge); got != c.want || err != nil {
			t.Fatalf("%v(fd %d, 2^36) = %d, %v; want %d", c.n, c.fd, got, err, c.want)
		}
	}
	if n, _ := s.FS.Size("/out"); n != huge {
		t.Fatalf("/out holds %d bytes, want 2^36", n)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 10 {
			for _, c := range calls {
				s.Do(p, c.n, c.fd, 0, huge)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("huge read/write allocated %v times in 10 rounds, want 0", allocs)
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
