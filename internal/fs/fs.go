// Package fs is the in-memory filesystem substrate backing the
// file-oriented system calls (open/read/write/close/dup/stat, pipes,
// and execve image lookup). The UnixBench File Copy and Execl
// microbenchmarks (Fig. 5) run against it, as do the static pages NGINX
// serves in the macro experiments.
//
// Files and pipes hold byte counts, not bytes. Guest binaries are
// register-only and have no user memory to read data into or write it
// from, and the paper measures syscall paths, never data. So a file is
// its size, a pipe is its fill level, and read(2)/write(2) move counts:
// return values, cursors and pipe backpressure are exactly those of a
// byte store, without the allocation.
package fs

import (
	"fmt"
	"math"
	"sync"
)

// FileSystem is a flat path -> file store. It is deliberately simple:
// the paper's evaluation stresses syscall paths, not directory
// hierarchies.
type FileSystem struct {
	mu    sync.RWMutex
	files map[string]*file
}

type file struct {
	size int
	mode uint32
}

// New creates an empty filesystem.
func New() *FileSystem {
	return &FileSystem{files: make(map[string]*file)}
}

// Create makes path a file of size bytes, replacing any existing one.
func (fs *FileSystem) Create(path string, size int, mode uint32) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = &file{size: size, mode: mode}
}

// Exists reports whether path is present.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the byte size of path.
func (fs *FileSystem) Size(path string) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", path)
	}
	return f.size, nil
}

// readAt reads up to n bytes of path at offset off and returns how many
// there were.
func (fs *FileSystem) readAt(path string, off, n int) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", path)
	}
	if off >= f.size {
		return 0, nil // EOF
	}
	return min(n, f.size-off), nil
}

// writeAt writes n bytes to path at offset off, growing the file as
// needed.
func (fs *FileSystem) writeAt(path string, off, n int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", path)
	}
	if off > math.MaxInt-n {
		return 0, fmt.Errorf("fs: %s: write of %d bytes at offset %d overflows", path, n, off)
	}
	f.size = max(f.size, off+n)
	return n, nil
}
