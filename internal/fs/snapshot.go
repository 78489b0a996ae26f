package fs

import (
	"cmp"
	"fmt"
	"slices"
)

// Snapshot support: the checkpoint/restore and live-migration features
// (paper §3.3 lists them among the Xen-ecosystem technologies
// X-Containers inherit) need to freeze and rebuild filesystem and
// descriptor-table state. Snapshots are slices in a fixed order (files
// by path, descriptors by number), so one state always encodes to the
// same bytes.

// FSSnapshot is a frozen filesystem image.
type FSSnapshot struct {
	Files []FileSnapshot // sorted by Path
}

// FileSnapshot is one frozen file.
type FileSnapshot struct {
	Path string
	Size int
	Mode uint32
}

// Snapshot freezes the filesystem.
func (fs *FileSystem) Snapshot() FSSnapshot {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	snap := FSSnapshot{Files: make([]FileSnapshot, 0, len(fs.files))}
	for p, f := range fs.files {
		snap.Files = append(snap.Files, FileSnapshot{Path: p, Size: f.size, Mode: f.mode})
	}
	slices.SortFunc(snap.Files, func(a, b FileSnapshot) int { return cmp.Compare(a.Path, b.Path) })
	return snap
}

// validate reports the first file with a negative size and any path
// that appears twice.
func (snap FSSnapshot) validate() error {
	seen := make(map[string]bool, len(snap.Files))
	for _, f := range snap.Files {
		if f.Size < 0 {
			return fmt.Errorf("fs: snapshot: %s has negative size %d", f.Path, f.Size)
		}
		if seen[f.Path] {
			return fmt.Errorf("fs: snapshot: %s appears twice", f.Path)
		}
		seen[f.Path] = true
	}
	return nil
}

// RestoreSnapshot replaces the filesystem contents with snap. A
// malformed snapshot changes nothing and returns an error.
func (fs *FileSystem) RestoreSnapshot(snap FSSnapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files = make(map[string]*file, len(snap.Files))
	for _, f := range snap.Files {
		fs.files[f.Path] = &file{size: f.Size, mode: f.Mode}
	}
	return nil
}

// FDSnapshot is one frozen descriptor.
type FDSnapshot struct {
	FD     int
	Kind   FDKind
	Path   string
	Offset int
	PipeID int // which pipe this end belongs to (-1 for none)
	Sock   int
}

// PipeSnapshot is one frozen pipe with its fill level.
type PipeSnapshot struct {
	ID       int
	Capacity int
	Buffered int
}

// TableSnapshot is a frozen descriptor table.
type TableSnapshot struct {
	Next  int
	FDs   []FDSnapshot
	Pipes []PipeSnapshot
}

// Snapshot freezes the descriptor table in descriptor order, preserving
// pipe sharing between read and write ends; pipes are numbered in the
// order their first end appears.
func (t *FDTable) Snapshot() TableSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	fds := make([]int, 0, numStd+len(t.fds))
	for fd, open := range t.stdOpen {
		if open {
			fds = append(fds, fd)
		}
	}
	for fd := range t.fds {
		fds = append(fds, fd)
	}
	slices.Sort(fds)
	snap := TableSnapshot{Next: t.next, FDs: make([]FDSnapshot, 0, len(fds))}
	pipeIDs := map[*Pipe]int{}
	for _, fd := range fds {
		f, _ := t.lookup(fd)
		e := FDSnapshot{FD: fd, Kind: f.Kind, Path: f.Path, Offset: f.Offset, Sock: f.Sock, PipeID: -1}
		if f.Pipe != nil {
			id, ok := pipeIDs[f.Pipe]
			if !ok {
				id = len(pipeIDs)
				pipeIDs[f.Pipe] = id
				f.Pipe.mu.Lock()
				snap.Pipes = append(snap.Pipes, PipeSnapshot{ID: id, Capacity: f.Pipe.cap, Buffered: f.Pipe.buffered})
				f.Pipe.mu.Unlock()
			}
			e.PipeID = id
		}
		snap.FDs = append(snap.FDs, e)
	}
	return snap
}

// validate reports the first descriptor with a negative offset, the
// first pipe whose fill lies outside [0, Capacity], and any descriptor
// whose pipe is missing: a pipe end must name a pipe in the snapshot,
// and every other descriptor must name none.
func (snap TableSnapshot) validate() error {
	pipes := make(map[int]bool, len(snap.Pipes))
	for _, p := range snap.Pipes {
		if p.Buffered < 0 || p.Buffered > p.Capacity {
			return fmt.Errorf("fs: snapshot: pipe %d holds %d bytes, capacity %d", p.ID, p.Buffered, p.Capacity)
		}
		pipes[p.ID] = true
	}
	for _, e := range snap.FDs {
		if e.Offset < 0 {
			return fmt.Errorf("fs: snapshot: fd %d has negative offset %d", e.FD, e.Offset)
		}
		isPipe := e.Kind == FDPipeRead || e.Kind == FDPipeWrite
		if isPipe != (e.PipeID != -1) || isPipe && !pipes[e.PipeID] {
			return fmt.Errorf("fs: snapshot: fd %d (kind %d) names unknown pipe %d", e.FD, e.Kind, e.PipeID)
		}
	}
	return nil
}

// RestoreSnapshot rebuilds the descriptor table from snap, reattaching
// shared pipes. A malformed snapshot changes nothing and returns an
// error.
func (t *FDTable) RestoreSnapshot(snap TableSnapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = snap.Next
	t.std, t.stdOpen, t.fds = [numStd]FD{}, [numStd]bool{}, nil
	pipes := make(map[int]*Pipe, len(snap.Pipes))
	for _, p := range snap.Pipes {
		np := NewPipe(p.Capacity)
		np.buffered = p.Buffered
		pipes[p.ID] = np
	}
	for _, e := range snap.FDs {
		fd := FD{Kind: e.Kind, Path: e.Path, Offset: e.Offset, Sock: e.Sock}
		if e.PipeID != -1 {
			fd.Pipe = pipes[e.PipeID]
		}
		t.set(e.FD, fd)
	}
	return nil
}
