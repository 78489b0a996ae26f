// Package linuxsim models the Linux kernel in two roles:
//
//   - Kernel: the monolithic host/guest kernel under Docker, gVisor,
//     Xen-Containers and Clear Containers, with its KPTI (Meltdown
//     patch) toggle and mode-switch syscall path.
//   - Services: the kernel's actual services (processes, descriptors,
//     files, pipes), shared with internal/libos — because the X-LibOS
//     *is* Linux (§3.2), the two kernels differ only in their entry
//     paths and privilege structure, never in semantics.
package linuxsim

import (
	"errors"
	"sync"

	"xcontainers/internal/fs"
	"xcontainers/internal/syscalls"
)

// Process is one kernel-visible process.
type Process struct {
	PID    int
	Parent int
	FDs    *fs.FDTable
	// Pages is the size of the process image in pages; fork/exec charge
	// one page-table update per page.
	Pages  int
	Exited bool
	Status int
}

// Services implements system-call semantics over the fs substrate. One
// Services instance exists per kernel instance (per container for
// X-Containers, per machine for Docker).
type Services struct {
	FS *fs.FileSystem

	mu      sync.Mutex
	nextPID int
	// live counts processes that have not exited. The processes
	// themselves are not kept: a fork-heavy workload never reaps its
	// children, and holding every one would keep them all reachable.
	live     int
	paths    map[uint64]string // path-ID registry for the binary ABI
	nextPath uint64
	umask    uint32
}

// NewServices creates a service instance over a fresh filesystem with
// /dev/null present for stdio seeding.
func NewServices() *Services {
	s := &Services{
		FS:       fs.New(),
		nextPID:  1,
		paths:    make(map[uint64]string),
		nextPath: 1,
		umask:    0022,
	}
	s.FS.Create("/dev/null", 0, 0666)
	return s
}

// RegisterPath assigns a numeric handle to a path so that register-only
// binaries can name files (the simulation's stand-in for user-memory
// string arguments).
func (s *Services) RegisterPath(path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextPath
	s.nextPath++
	s.paths[id] = path
	return id
}

// PathOf resolves a registered path handle.
func (s *Services) PathOf(id uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.paths[id]
	return p, ok
}

// NewProcess creates a process with stdio seeded on /dev/null. pages is
// its image size for fork/exec cost accounting.
func (s *Services) NewProcess(pages int) *Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &Process{PID: s.nextPID, FDs: fs.NewFDTable(s.FS), Pages: pages}
	p.FDs.SeedStdio("/dev/null")
	s.nextPID++
	s.live++
	return p
}

// Fork clones parent: new PID and image size, a fresh descriptor table
// with stdio on /dev/null (the parent's descriptors are not copied).
func (s *Services) Fork(parent *Process) *Process {
	child := s.NewProcess(parent.Pages)
	child.Parent = parent.PID
	return child
}

// Exit marks p exited with status.
func (s *Services) Exit(p *Process, status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !p.Exited {
		s.live--
	}
	p.Exited = true
	p.Status = status
}

// Processes returns the number of live processes.
func (s *Services) Processes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Do executes the semantics of one system call for process p with raw
// register arguments. It covers the descriptor/file/pipe working set;
// process-lifecycle calls (fork/execve/wait) are composed by the
// runtime layer because their *cost* is architecture-specific.
//
// Returns the RAX result. Unknown-but-valid syscalls are no-ops
// returning 0, which keeps application models honest without requiring
// the full ABI.
func (s *Services) Do(p *Process, n syscalls.No, a1, a2, a3 uint64) (uint64, error) {
	switch n {
	case syscalls.Getpid:
		return uint64(p.PID), nil
	case syscalls.Getuid:
		return 0, nil // root, as in the paper's containers
	case syscalls.Umask:
		s.mu.Lock()
		old := s.umask
		s.umask = uint32(a1) & 0777
		s.mu.Unlock()
		return uint64(old), nil
	case syscalls.Dup:
		fd, err := p.FDs.Dup(int(a1))
		if err != nil {
			return errno(err), nil
		}
		return uint64(fd), nil
	case syscalls.Close:
		if err := p.FDs.Close(int(a1)); err != nil {
			return errno(err), nil
		}
		return 0, nil
	case syscalls.Open, syscalls.Openat:
		path, ok := s.PathOf(a1)
		if !ok {
			return errno(errPathHandle), nil
		}
		fd, err := p.FDs.OpenCreate(path)
		if err != nil {
			return errno(err), nil
		}
		return uint64(fd), nil
	case syscalls.Read:
		if int(a3) < 0 {
			return errno(errCount), nil
		}
		nr, err := p.FDs.Read(int(a1), int(a3))
		if err != nil {
			return errno(err), nil
		}
		return uint64(nr), nil
	case syscalls.Write:
		if int(a3) < 0 {
			return errno(errCount), nil
		}
		nw, err := p.FDs.Write(int(a1), int(a3))
		if err != nil {
			return errno(err), nil
		}
		return uint64(nw), nil
	case syscalls.Pipe:
		r, _ := p.FDs.NewPipe(0)
		return uint64(r), nil // write end is r+1 by construction
	case syscalls.Stat, syscalls.Fstat, syscalls.Fcntl, syscalls.Ioctl,
		syscalls.Brk, syscalls.Mmap, syscalls.Munmap,
		syscalls.Gettimeofday, syscalls.SchedYield, syscalls.RtSigreturn,
		syscalls.Futex, syscalls.Nanosleep, syscalls.Kill:
		return 0, nil
	}
	if !n.Valid() {
		return errno(errSyscall), nil
	}
	return 0, nil
}

// Syscall argument errors, shared like fs's descriptor errors: errno
// keeps only the fact of failure.
var (
	errPathHandle = errors.New("linuxsim: unknown path handle")
	errCount      = errors.New("linuxsim: count out of range")
	errSyscall    = errors.New("linuxsim: bad syscall")
)

// errno encodes an error as a negative return in the Linux style.
func errno(err error) uint64 {
	_ = err
	return ^uint64(0) // -1
}
