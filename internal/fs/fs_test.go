package fs

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestFileCreateReadWrite(t *testing.T) {
	f := New()
	f.Create("/a", 5, 0644)
	if !f.Exists("/a") || f.Exists("/b") {
		t.Fatal("existence wrong")
	}
	if n, err := f.Size("/a"); err != nil || n != 5 {
		t.Fatalf("size = %d, %v", n, err)
	}
	if _, err := f.Size("/b"); err == nil {
		t.Fatal("size of missing file must fail")
	}
	f.Create("/a", 2, 0644)
	if n, _ := f.Size("/a"); n != 2 {
		t.Fatalf("re-created size = %d, want 2", n)
	}
}

// TestCreateSizes: a created file reads back exactly its size, from any
// offset, with EOF at the end; the fixtures are as large as 4 MiB.
func TestCreateSizes(t *testing.T) {
	f := New()
	for _, size := range []int{0, 1, 25, 26, 27, 100, 4 << 20} {
		path := fmt.Sprintf("/f%d", size)
		f.Create(path, size, 0644)
		if n, _ := f.Size(path); n != size {
			t.Fatalf("size %d: Size = %d", size, n)
		}
		for _, off := range []int{0, size / 2, size - 1, size, size + 1} {
			if off < 0 {
				continue
			}
			want := max(0, min(64, size-off))
			if n, err := f.readAt(path, off, 64); n != want || err != nil {
				t.Fatalf("size %d: readAt(%d, 64) = %d, %v; want %d", size, off, n, err, want)
			}
		}
	}
}

// TestWriteAtGapReadsZero: writing past the end leaves a gap (zeros in
// a real filesystem) that is part of the file and reads back in full.
func TestWriteAtGapReadsZero(t *testing.T) {
	f := New()
	f.Create("/g", 2, 0644)
	for _, w := range []struct{ off, n, size int }{{4, 1, 5}, {6, 1, 7}, {64, 2, 66}, {10, 1, 66}} {
		if n, err := f.writeAt("/g", w.off, w.n); n != w.n || err != nil {
			t.Fatalf("writeAt(%d, %d) = %d, %v", w.off, w.n, n, err)
		}
		if n, _ := f.Size("/g"); n != w.size {
			t.Fatalf("after writeAt(%d, %d): size %d, want %d", w.off, w.n, n, w.size)
		}
	}
	if n, _ := f.readAt("/g", 0, 80); n != 66 {
		t.Fatalf("read across the gaps = %d, want 66", n)
	}
	if n, _ := f.readAt("/g", 2, 3); n != 3 {
		t.Fatalf("read inside the first gap = %d, want 3", n)
	}
}

// TestWriteAtOverflowRejected: a write whose end would overflow int is
// an error and leaves the file as it was.
func TestWriteAtOverflowRejected(t *testing.T) {
	f := New()
	f.Create("/o", 3, 0644)
	if n, err := f.writeAt("/o", math.MaxInt-1, 2); err == nil || n != 0 {
		t.Fatalf("overflowing writeAt = %d, %v; want an error", n, err)
	}
	if n, err := f.writeAt("/o", math.MaxInt-2, 2); err != nil || n != 2 {
		t.Fatalf("writeAt ending at MaxInt = %d, %v", n, err)
	}
	if n, _ := f.Size("/o"); n != math.MaxInt {
		t.Fatalf("size = %d, want MaxInt", n)
	}
}

func TestFDTableOpenReadWriteClose(t *testing.T) {
	f := New()
	f.Create("/data", 8, 0644)
	tbl := NewFDTable(f)
	fd, err := tbl.Open("/data")
	if err != nil {
		t.Fatal(err)
	}
	if fd != 3 {
		t.Fatalf("first fd = %d, want 3", fd)
	}
	n, err := tbl.Read(fd, 4)
	if err != nil || n != 4 {
		t.Fatalf("read = %d %v", n, err)
	}
	// Cursor advanced.
	if e, _ := tbl.Get(fd); e.Offset != 4 {
		t.Fatalf("cursor = %d, want 4", e.Offset)
	}
	if n, _ = tbl.Read(fd, 6); n != 4 {
		t.Fatalf("second read = %d, want the 4 bytes left", n)
	}
	// EOF.
	if n, _ := tbl.Read(fd, 4); n != 0 {
		t.Fatalf("read past EOF = %d", n)
	}
	if _, err := tbl.Read(fd, -1); err == nil {
		t.Fatal("negative read count accepted")
	}
	if err := tbl.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(fd); err == nil {
		t.Fatal("double close must fail")
	}
}

func TestFDTableWriteGrows(t *testing.T) {
	f := New()
	tbl := NewFDTable(f)
	fd, err := tbl.OpenCreate("/out")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if n, err := tbl.Write(fd, 1024); n != 1024 || err != nil {
			t.Fatalf("write %d = %d, %v", i, n, err)
		}
	}
	if n, _ := f.Size("/out"); n != 2048000 {
		t.Fatalf("size = %d, want 2048000", n)
	}
	if _, err := tbl.Write(fd, -1); err == nil {
		t.Fatal("negative write count accepted")
	}
}

func TestFDTableDup(t *testing.T) {
	f := New()
	f.Create("/x", 1, 0644)
	tbl := NewFDTable(f)
	fd, _ := tbl.Open("/x")
	d, err := tbl.Dup(fd)
	if err != nil || d == fd {
		t.Fatalf("dup = %d, %v", d, err)
	}
	if _, err := tbl.Dup(99); err == nil {
		t.Fatal("dup of bad fd must fail")
	}
	// Descriptors never get reused (simulation invariant the benchmark
	// programs rely on).
	tbl.Close(d)
	d2, _ := tbl.Dup(fd)
	if d2 == d {
		t.Fatal("fd numbers must not be reused")
	}
}

func TestSeedStdio(t *testing.T) {
	f := New()
	f.Create("/dev/null", 0, 0666)
	tbl := NewFDTable(f)
	tbl.SeedStdio("/dev/null")
	for fd := 0; fd <= 2; fd++ {
		if _, ok := tbl.Get(fd); !ok {
			t.Fatalf("fd %d not seeded", fd)
		}
	}
	d, err := tbl.Dup(0)
	if err != nil || d < 3 {
		t.Fatalf("dup(0) = %d, %v", d, err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	f := New()
	tbl := NewFDTable(f)
	r, w := tbl.NewPipe(16)
	if n, _ := tbl.Write(w, 5); n != 5 {
		t.Fatalf("pipe write = %d", n)
	}
	if n, _ := tbl.Read(r, 8); n != 5 {
		t.Fatalf("pipe read = %d, want 5", n)
	}
	// Empty pipe reads 0 (caller would block).
	if n, _ := tbl.Read(r, 8); n != 0 {
		t.Fatal("empty pipe must read 0")
	}
	// Wrong-direction I/O fails.
	if _, err := tbl.Read(w, 8); err == nil {
		t.Fatal("read from write end must fail")
	}
	if _, err := tbl.Write(r, 8); err == nil {
		t.Fatal("write to read end must fail")
	}
}

func TestPipeBackpressure(t *testing.T) {
	p := NewPipe(8)
	if n := p.Write(16); n != 8 {
		t.Fatalf("overfull write accepted %d, want 8", n)
	}
	if n := p.Write(1); n != 0 {
		t.Fatal("full pipe must accept 0")
	}
	p.Read(8)
	if n := p.Write(1); n != 1 {
		t.Fatal("drained pipe must accept writes again")
	}
}

func TestPipeConservesBytesQuick(t *testing.T) {
	// Property: bytes out ≤ bytes in, and with sufficient reads all
	// bytes come back out.
	f := func(chunks []uint8) bool {
		p := NewPipe(4096)
		in, out := 0, 0
		for _, c := range chunks {
			in += p.Write(int(c) % 128)
			out += p.Read(64)
		}
		for {
			m := p.Read(256)
			if m == 0 {
				break
			}
			out += m
		}
		return in == out && p.buffered == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAttachesAnyPipeID: a checkpoint may number its pipes with
// any id but -1, which means "no pipe"; each end must come back
// attached, with its fill.
func TestRestoreAttachesAnyPipeID(t *testing.T) {
	tbl := NewFDTable(New())
	err := tbl.RestoreSnapshot(TableSnapshot{
		Next: 5,
		FDs: []FDSnapshot{
			{FD: 3, Kind: FDPipeRead, PipeID: -2},
			{FD: 4, Kind: FDPipeWrite, PipeID: -2},
		},
		Pipes: []PipeSnapshot{{ID: -2, Capacity: 8, Buffered: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Write(4, 8); n != 5 || err != nil {
		t.Fatalf("write = %d, %v; want the 5 bytes of room left", n, err)
	}
	if n, err := tbl.Read(3, 16); n != 8 || err != nil {
		t.Fatalf("read = %d, %v; want 8", n, err)
	}
}
