package fs

import (
	"fmt"
	"sync"
)

// FDKind distinguishes what a descriptor refers to.
type FDKind uint8

const (
	FDFile FDKind = iota
	FDPipeRead
	FDPipeWrite
	FDSocket
)

// FD is one open descriptor.
type FD struct {
	Kind   FDKind
	Path   string // for FDFile
	Offset int    // file cursor
	Pipe   *Pipe  // for pipe ends
	Sock   int    // opaque socket handle (netsim connection id)
}

// FDTable is a per-process descriptor table. dup/close/open in the
// UnixBench System Call benchmark operate on it.
type FDTable struct {
	mu   sync.Mutex
	next int
	// Descriptors 0..2 live inline in std, open where stdOpen is set:
	// every process gets stdio and most (every forked child) open
	// nothing else, so fds is made by the first descriptor above them.
	std     [numStd]FD
	stdOpen [numStd]bool
	fds     map[int]*FD
	fs      *FileSystem
}

// numStd is the number of stdio descriptors, 0..2.
const numStd = 3

// NewFDTable creates a descriptor table over fs. Descriptors 0..2 are
// reserved as in POSIX; allocation starts at 3.
func NewFDTable(fs *FileSystem) *FDTable {
	return &FDTable{next: numStd, fs: fs}
}

// lookup returns fd's descriptor, or false if fd is not open. The
// caller holds t.mu.
func (t *FDTable) lookup(fd int) (*FD, bool) {
	if uint(fd) < numStd {
		if !t.stdOpen[fd] {
			return nil, false
		}
		return &t.std[fd], true
	}
	f, ok := t.fds[fd]
	return f, ok
}

// set installs f as descriptor fd. The caller holds t.mu.
func (t *FDTable) set(fd int, f FD) {
	if uint(fd) < numStd {
		t.std[fd], t.stdOpen[fd] = f, true
		return
	}
	if t.fds == nil {
		t.fds = make(map[int]*FD)
	}
	// A copy, not &f: taking f's address would move every call's f,
	// stdio included, to the heap.
	p := new(FD)
	*p = f
	t.fds[fd] = p
}

// SeedStdio installs descriptors 0..2 over the given path (typically
// /dev/null), so programs can dup(0) and write(1) as on a real system.
func (t *FDTable) SeedStdio(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fd := 0; fd < numStd; fd++ {
		t.set(fd, FD{Kind: FDFile, Path: path})
	}
}

// Open opens path and returns a new descriptor.
func (t *FDTable) Open(path string) (int, error) {
	if !t.fs.Exists(path) {
		return -1, fmt.Errorf("fdtable: open %s: no such file", path)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fd := t.next
	t.next++
	t.set(fd, FD{Kind: FDFile, Path: path})
	return fd, nil
}

// OpenCreate creates the file if missing, then opens it.
func (t *FDTable) OpenCreate(path string) (int, error) {
	if !t.fs.Exists(path) {
		t.fs.Create(path, 0, 0644)
	}
	return t.Open(path)
}

// Dup duplicates fd, sharing the underlying object but not the cursor
// (cursor sharing is irrelevant to the benchmarks; dup cost is what
// matters).
func (t *FDTable) Dup(fd int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.lookup(fd)
	if !ok {
		return -1, fmt.Errorf("fdtable: dup %d: bad descriptor", fd)
	}
	nfd := t.next
	t.next++
	t.set(nfd, *f)
	return nfd, nil
}

// Close releases fd.
func (t *FDTable) Close(fd int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.lookup(fd); !ok {
		return fmt.Errorf("fdtable: close %d: bad descriptor", fd)
	}
	if uint(fd) < numStd {
		t.std[fd], t.stdOpen[fd] = FD{}, false
	} else {
		delete(t.fds, fd)
	}
	return nil
}

// Get looks up fd.
func (t *FDTable) Get(fd int) (*FD, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookup(fd)
}

// Len returns the number of open descriptors.
func (t *FDTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.fds)
	for _, open := range t.stdOpen {
		if open {
			n++
		}
	}
	return n
}

// Read reads up to n bytes from fd, advancing the cursor, and returns
// how many it read.
func (t *FDTable) Read(fd, n int) (int, error) {
	f, err := t.io(fd, n, "read")
	if err != nil {
		return 0, err
	}
	switch f.Kind {
	case FDFile:
		nr, err := t.fs.readAt(f.Path, f.Offset, n)
		f.Offset += nr
		return nr, err
	case FDPipeRead:
		return f.Pipe.Read(n), nil
	}
	return 0, fmt.Errorf("fdtable: read %d: wrong descriptor kind", fd)
}

// Write writes n bytes to fd and returns how many were accepted.
func (t *FDTable) Write(fd, n int) (int, error) {
	f, err := t.io(fd, n, "write")
	if err != nil {
		return 0, err
	}
	switch f.Kind {
	case FDFile:
		nw, err := t.fs.writeAt(f.Path, f.Offset, n)
		f.Offset += nw
		return nw, err
	case FDPipeWrite:
		return f.Pipe.Write(n), nil
	}
	return 0, fmt.Errorf("fdtable: write %d: wrong descriptor kind", fd)
}

// io looks up fd for a read or write of n bytes.
func (t *FDTable) io(fd, n int, op string) (*FD, error) {
	if n < 0 {
		return nil, fmt.Errorf("fdtable: %s %d: negative count %d", op, fd, n)
	}
	t.mu.Lock()
	f, ok := t.lookup(fd)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fdtable: %s %d: bad descriptor", op, fd)
	}
	return f, nil
}

// NewPipe creates a pipe and returns (readFD, writeFD).
func (t *FDTable) NewPipe(capacity int) (int, int) {
	p := NewPipe(capacity)
	t.mu.Lock()
	defer t.mu.Unlock()
	r, w := t.next, t.next+1
	t.next += 2
	t.set(r, FD{Kind: FDPipeRead, Pipe: p})
	t.set(w, FD{Kind: FDPipeWrite, Pipe: p})
	return r, w
}

// Pipe is a bounded byte buffer connecting two descriptors; the Pipe
// Throughput and Context Switching UnixBench tests run over it. It
// holds only its fill level.
type Pipe struct {
	mu       sync.Mutex
	buffered int
	cap      int
}

// DefaultPipeCapacity matches Linux's 64 KiB default.
const DefaultPipeCapacity = 65536

// NewPipe creates a pipe with the given capacity (0 selects default).
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		capacity = DefaultPipeCapacity
	}
	return &Pipe{cap: capacity}
}

// Write accepts up to free-space bytes of an n-byte write, returning
// how many were accepted; 0 means the pipe is full (caller blocks).
func (p *Pipe) Write(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, p.cap-p.buffered)
	p.buffered += n
	return n
}

// Read removes up to n bytes and returns how many; 0 means the pipe is
// empty.
func (p *Pipe) Read(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, p.buffered)
	p.buffered -= n
	return n
}
