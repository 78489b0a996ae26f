package fs

import (
	"fmt"
	"testing"
)

// refTable is the reference model FuzzFDTable checks the count-only
// filesystem against: files and pipes that store real bytes, as the
// filesystem did before it kept only sizes. Writes carry a running
// pattern, reads copy bytes out, and the test checks that every count,
// cursor, error, file size and pipe fill agrees.
type refTable struct {
	files map[string][]byte
	fds   map[int]*refFD
	next  int
	pipes []*refPipe
	fill  byte // next byte value a write carries
}

type refFD struct {
	kind FDKind
	path string
	off  int
	pipe *refPipe
}

type refPipe struct {
	buf []byte
	cap int
}

func newRefTable() *refTable {
	return &refTable{files: map[string][]byte{}, fds: map[int]*refFD{}, next: 3}
}

// payload returns n bytes of the running write pattern.
func (r *refTable) payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = r.fill
		r.fill++
	}
	return b
}

func (r *refTable) create(path string, size int) {
	r.files[path] = r.payload(size)
}

func (r *refTable) open(path string, create bool) (int, error) {
	if _, ok := r.files[path]; !ok {
		if !create {
			return -1, fmt.Errorf("no such file")
		}
		r.files[path] = nil
	}
	fd := r.next
	r.next++
	r.fds[fd] = &refFD{kind: FDFile, path: path}
	return fd, nil
}

// seedStdio opens descriptors 0..2 over path, creating it empty if it
// is missing, as linuxsim does with /dev/null for every process.
func (r *refTable) seedStdio(path string) {
	if _, ok := r.files[path]; !ok {
		r.create(path, 0)
	}
	for fd := 0; fd < 3; fd++ {
		r.fds[fd] = &refFD{kind: FDFile, path: path}
	}
}

func (r *refTable) dup(fd int) (int, error) {
	f, ok := r.fds[fd]
	if !ok {
		return -1, fmt.Errorf("bad descriptor")
	}
	nfd := r.next
	r.next++
	cp := *f
	r.fds[nfd] = &cp
	return nfd, nil
}

func (r *refTable) close(fd int) error {
	if _, ok := r.fds[fd]; !ok {
		return fmt.Errorf("bad descriptor")
	}
	delete(r.fds, fd)
	return nil
}

func (r *refTable) read(fd, n int) (int, error) {
	f, ok := r.fds[fd]
	if !ok {
		return 0, fmt.Errorf("bad descriptor")
	}
	dst := make([]byte, n)
	switch f.kind {
	case FDFile:
		data := r.files[f.path]
		if f.off >= len(data) {
			return 0, nil
		}
		nr := copy(dst, data[f.off:])
		f.off += nr
		return nr, nil
	case FDPipeRead:
		nr := copy(dst, f.pipe.buf)
		f.pipe.buf = f.pipe.buf[nr:]
		return nr, nil
	}
	return 0, fmt.Errorf("wrong descriptor kind")
}

func (r *refTable) write(fd, n int) (int, error) {
	f, ok := r.fds[fd]
	if !ok {
		return 0, fmt.Errorf("bad descriptor")
	}
	src := r.payload(n)
	switch f.kind {
	case FDFile:
		data := r.files[f.path]
		if need := f.off + n; need > len(data) {
			data = append(data, make([]byte, need-len(data))...)
		}
		nw := copy(data[f.off:], src)
		r.files[f.path] = data
		f.off += nw
		return nw, nil
	case FDPipeWrite:
		nw := min(n, f.pipe.cap-len(f.pipe.buf))
		f.pipe.buf = append(f.pipe.buf, src[:nw]...)
		return nw, nil
	}
	return 0, fmt.Errorf("wrong descriptor kind")
}

func (r *refTable) newPipe(capacity int) (int, int) {
	if capacity <= 0 {
		capacity = DefaultPipeCapacity
	}
	p := &refPipe{cap: capacity}
	r.pipes = append(r.pipes, p)
	rd, wr := r.next, r.next+1
	r.next += 2
	r.fds[rd] = &refFD{kind: FDPipeRead, pipe: p}
	r.fds[wr] = &refFD{kind: FDPipeWrite, pipe: p}
	return rd, wr
}

// Operation codes of the byte programs runFDProgram decodes.
const (
	fdCreate        = iota // path, size
	fdOpen                 // path
	fdOpenCreate           // path
	fdRead                 // fd, n
	fdWrite                // fd, n
	fdDup                  // fd
	fdClose                // fd
	fdNewPipe              // capacity%32 (0 = default)
	fdRestore              // none: Snapshot, then Restore into a fresh table
	fdRestoreSeeded        // none: as fdRestore, into a table with stdio seeded
	numFDOps
)

// fuzzPaths are the files programs name: three, so opens hit present,
// absent and re-created files alike.
var fuzzPaths = []string{"/dev/null", "/a", "/b"}

// runFDProgram runs prog against a fresh table and the reference
// model. With stdio set, both start with descriptors 0..2 open on
// /dev/null, as every simulated process does.
func runFDProgram(t *testing.T, stdio bool, prog []byte) {
	t.Helper()
	fsys := New()
	tbl := NewFDTable(fsys)
	ref := newRefTable()
	if stdio {
		if !fsys.Exists("/dev/null") {
			fsys.Create("/dev/null", 0, 0666)
		}
		tbl.SeedStdio("/dev/null")
		ref.seedStdio("/dev/null")
	}
	pos := 0
	arg := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	path := func() string { return fuzzPaths[arg()%len(fuzzPaths)] }
	// Descriptors range over every number issued plus two never issued.
	fd := func() int { return arg() % (ref.next + 2) }
	// Counts reach past a pipe's capacity and a file's end.
	count := func() int { return arg() * 3 }
	same := func(step int, what string, got, want int, gerr, werr error) {
		t.Helper()
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("step %d: %s = %d, %v; want %d, %v", step, what, got, gerr, want, werr)
		}
	}
	for step := 0; pos < len(prog); step++ {
		switch op := arg() % numFDOps; op {
		case fdCreate:
			p, n := path(), count()
			fsys.Create(p, n, 0644)
			ref.create(p, n)
		case fdOpen, fdOpenCreate:
			p := path()
			open := tbl.Open
			if op == fdOpenCreate {
				open = tbl.OpenCreate
			}
			got, gerr := open(p)
			want, werr := ref.open(p, op == fdOpenCreate)
			same(step, "open "+p, got, want, gerr, werr)
		case fdRead:
			f, n := fd(), count()
			got, gerr := tbl.Read(f, n)
			want, werr := ref.read(f, n)
			same(step, fmt.Sprintf("read(%d, %d)", f, n), got, want, gerr, werr)
		case fdWrite:
			f, n := fd(), count()
			got, gerr := tbl.Write(f, n)
			want, werr := ref.write(f, n)
			same(step, fmt.Sprintf("write(%d, %d)", f, n), got, want, gerr, werr)
		case fdDup:
			f := fd()
			got, gerr := tbl.Dup(f)
			want, werr := ref.dup(f)
			same(step, fmt.Sprintf("dup(%d)", f), got, want, gerr, werr)
		case fdClose:
			f := fd()
			same(step, fmt.Sprintf("close(%d)", f), 0, 0, tbl.Close(f), ref.close(f))
		case fdNewPipe:
			c := arg() % 32
			gr, gw := tbl.NewPipe(c)
			wr, ww := ref.newPipe(c)
			if gr != wr || gw != ww {
				t.Fatalf("step %d: NewPipe(%d) = %d, %d; want %d, %d", step, c, gr, gw, wr, ww)
			}
		case fdRestore, fdRestoreSeeded:
			fsSnap, tblSnap := fsys.Snapshot(), tbl.Snapshot()
			fsys = New()
			tbl = NewFDTable(fsys)
			if op == fdRestoreSeeded {
				// Restore must close what the snapshot does not hold.
				tbl.SeedStdio("/dev/null")
			}
			if err := fsys.RestoreSnapshot(fsSnap); err != nil {
				t.Fatalf("step %d: restore filesystem: %v", step, err)
			}
			if err := tbl.RestoreSnapshot(tblSnap); err != nil {
				t.Fatalf("step %d: restore table: %v", step, err)
			}
		}
		checkFDState(t, step, fsys, tbl, ref)
	}
}

// checkFDState compares every file size, descriptor cursor and pipe
// fill with the reference model.
func checkFDState(t *testing.T, step int, fsys *FileSystem, tbl *FDTable, ref *refTable) {
	t.Helper()
	for _, p := range fuzzPaths {
		data, want := ref.files[p]
		got, err := fsys.Size(p)
		if (err == nil) != want || got != len(data) {
			t.Fatalf("step %d: Size(%s) = %d, %v; want %d (present %v)", step, p, got, err, len(data), want)
		}
	}
	if got, want := tbl.Len(), len(ref.fds); got != want {
		t.Fatalf("step %d: %d descriptors open, want %d", step, got, want)
	}
	for n, w := range ref.fds {
		g, ok := tbl.Get(n)
		if !ok || g.Kind != w.kind || g.Path != w.path || g.Offset != w.off {
			t.Fatalf("step %d: fd %d = %+v (open %v); want %+v", step, n, g, ok, *w)
		}
		if w.pipe != nil {
			if got, want := g.Pipe.buffered, len(w.pipe.buf); got != want {
				t.Fatalf("step %d: fd %d pipe holds %d bytes, want %d", step, n, got, want)
			}
		}
	}
}

// fdSeeds cover each operation's boundary: EOF, writes past the end,
// full and empty pipes, dup'd cursors, bad descriptors and a snapshot
// round trip with bytes still in a pipe. The last two work fds 0..2
// when stdio is seeded: dup, close, read and write them, and restore a
// table whose stdio was closed into one where it is open.
var fdSeeds = [][]byte{
	{fdCreate, 1, 10, fdOpen, 1, fdRead, 3, 2, fdRead, 3, 2, fdRead, 3, 2},
	{fdOpenCreate, 2, fdWrite, 3, 5, fdDup, 3, fdWrite, 4, 9, fdRead, 3, 50},
	{fdNewPipe, 4, fdWrite, 4, 2, fdWrite, 4, 2, fdRead, 3, 1, fdRead, 3, 9, fdRead, 3, 1},
	{fdNewPipe, 0, fdWrite, 4, 200, fdRestore, fdRead, 3, 30, fdWrite, 3, 1},
	{fdOpen, 1, fdRead, 9, 1, fdClose, 9, fdDup, 9, fdOpenCreate, 0, fdClose, 3, fdClose, 3},
	{fdCreate, 2, 4, fdOpen, 2, fdWrite, 3, 1, fdCreate, 2, 0, fdRead, 3, 5, fdRestore, fdWrite, 3, 1},
	{fdWrite, 1, 7, fdDup, 1, fdRead, 3, 9, fdRead, 0, 9, fdClose, 0, fdRead, 0, 1, fdRestore, fdWrite, 2, 2, fdRead, 3, 9},
	{fdClose, 1, fdNewPipe, 8, fdWrite, 4, 5, fdDup, 3, fdRestoreSeeded, fdRead, 5, 9, fdWrite, 1, 1, fdClose, 2, fdRestoreSeeded, fdDup, 2},
}

// TestFDTableSeeds runs every seed without stdio and with it.
func TestFDTableSeeds(t *testing.T) {
	for i, prog := range fdSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			runFDProgram(t, false, prog)
			runFDProgram(t, true, prog)
		})
	}
}

// FuzzFDTable checks the count-only filesystem, descriptor table and
// pipes against the byte-storing reference model on arbitrary
// operation sequences, with and without stdio seeded.
func FuzzFDTable(f *testing.F) {
	for _, stdio := range []bool{false, true} {
		for _, prog := range fdSeeds {
			f.Add(stdio, prog)
		}
	}
	f.Fuzz(func(t *testing.T, stdio bool, prog []byte) {
		// A few hundred operations reach every state; longer programs
		// only slow the minimization of each new input.
		runFDProgram(t, stdio, prog[:min(len(prog), 512)])
	})
}
