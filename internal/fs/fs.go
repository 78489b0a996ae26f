// Package fs is the in-memory filesystem substrate backing the
// file-oriented system calls (open/read/write/close/dup/stat, pipes,
// and execve image lookup). The UnixBench File Copy and Execl
// microbenchmarks (Fig. 5) run against it, as do the static pages NGINX
// serves in the macro experiments.
package fs

import (
	"fmt"
	"slices"
	"sort"
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
	data []byte
	mode uint32
}

// New creates an empty filesystem.
func New() *FileSystem {
	return &FileSystem{files: make(map[string]*file)}
}

// Create writes a file, replacing any existing content.
func (fs *FileSystem) Create(path string, data []byte, mode uint32) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := make([]byte, len(data))
	copy(d, data)
	fs.files[path] = &file{data: d, mode: mode}
}

// CreateSized writes a file of the given size filled with a repeating
// pattern (workload fixtures: web pages, copy sources). Byte i is
// 'a'+i%26.
func (fs *FileSystem) CreateSized(path string, size int, mode uint32) {
	data := make([]byte, size)
	// Seed one period, then double the filled prefix: every prefix
	// length stays a multiple of the period, so each copy continues the
	// pattern in phase.
	n := copy(data, "abcdefghijklmnopqrstuvwxyz")
	for n < size {
		n += copy(data[n:], data[:n])
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = &file{data: data, mode: mode}
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
	return len(f.data), nil
}

// Remove deletes path.
func (fs *FileSystem) Remove(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
}

// List returns all paths in sorted order.
func (fs *FileSystem) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// readAt copies from path at offset into p.
func (fs *FileSystem) readAt(path string, off int, p []byte) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", path)
	}
	if off >= len(f.data) {
		return 0, nil // EOF
	}
	return copy(p, f.data[off:]), nil
}

// writeAt writes p into path at offset, growing the file as needed.
func (fs *FileSystem) writeAt(path string, off int, p []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", path)
	}
	if need := off + len(p); need > len(f.data) {
		// Grow capacity at least geometrically so sequential appenders
		// (the File Copy benchmark) stay linear; any gap between the old
		// end and off reads back as zeros.
		old := len(f.data)
		if need > cap(f.data) {
			f.data = slices.Grow(f.data, max(need, 2*cap(f.data))-old)
		}
		f.data = f.data[:need]
		clear(f.data[old:max(off, old)])
	}
	return copy(f.data[off:], p), nil
}
