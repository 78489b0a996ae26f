package fs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestFileCreateReadWrite(t *testing.T) {
	f := New()
	f.Create("/a", []byte("hello"), 0644)
	if !f.Exists("/a") || f.Exists("/b") {
		t.Fatal("existence wrong")
	}
	if n, err := f.Size("/a"); err != nil || n != 5 {
		t.Fatalf("size = %d, %v", n, err)
	}
	if _, err := f.Size("/b"); err == nil {
		t.Fatal("size of missing file must fail")
	}
	f.Remove("/a")
	if f.Exists("/a") {
		t.Fatal("remove failed")
	}
}

func TestCreateSizedPattern(t *testing.T) {
	check := func(f *FileSystem, size int, offs ...int) {
		t.Helper()
		path := fmt.Sprintf("/f%d", size)
		f.CreateSized(path, size, 0644)
		if n, _ := f.Size(path); n != size {
			t.Fatalf("size %d: Size = %d", size, n)
		}
		for _, off := range offs {
			var b [1]byte
			if n, _ := f.readAt(path, off, b[:]); n != 1 || b[0] != byte('a'+off%26) {
				t.Fatalf("size %d: byte %d = %q (n=%d), want %q", size, off, b[0], n, byte('a'+off%26))
			}
		}
	}
	f := New()
	for _, size := range []int{0, 1, 25, 26, 27, 100} {
		offs := make([]int, size)
		for i := range offs {
			offs[i] = i
		}
		check(f, size, offs...)
	}
	const big = 4 << 20
	check(f, big, 0, big/2+13, big-1)
}

func TestWriteAtGapReadsZero(t *testing.T) {
	f := New()
	f.Create("/g", []byte("ab"), 0644)
	// Extend past the capacity, within the spare capacity that growth
	// left, and past it again: every gap must read as zeros.
	for _, w := range []struct{ off, n int }{{4, 1}, {6, 1}, {64, 2}, {10, 1}} {
		if _, err := f.writeAt("/g", w.off, bytes.Repeat([]byte{'x'}, w.n)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, 66)
	copy(want, "ab\x00\x00x\x00x")
	want[10], want[64], want[65] = 'x', 'x', 'x'
	got := make([]byte, 80)
	n, _ := f.readAt("/g", 0, got)
	if !bytes.Equal(got[:n], want) {
		t.Fatalf("contents = %q, want %q", got[:n], want)
	}
}

func TestList(t *testing.T) {
	f := New()
	f.Create("/b", nil, 0)
	f.Create("/a", nil, 0)
	got := f.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("List = %v", got)
	}
}

func TestFDTableOpenReadWriteClose(t *testing.T) {
	f := New()
	f.Create("/data", []byte("abcdefgh"), 0644)
	tbl := NewFDTable(f)
	fd, err := tbl.Open("/data")
	if err != nil {
		t.Fatal(err)
	}
	if fd != 3 {
		t.Fatalf("first fd = %d, want 3", fd)
	}
	buf := make([]byte, 4)
	n, err := tbl.Read(fd, buf)
	if err != nil || n != 4 || string(buf) != "abcd" {
		t.Fatalf("read = %d %q %v", n, buf, err)
	}
	// Cursor advanced.
	n, _ = tbl.Read(fd, buf)
	if string(buf[:n]) != "efgh" {
		t.Fatalf("second read = %q", buf[:n])
	}
	// EOF.
	if n, _ := tbl.Read(fd, buf); n != 0 {
		t.Fatalf("read past EOF = %d", n)
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
	chunk := make([]byte, 1024)
	for i := 0; i < 2000; i++ {
		if n, err := tbl.Write(fd, chunk); n != 1024 || err != nil {
			t.Fatalf("write %d = %d, %v", i, n, err)
		}
	}
	if n, _ := f.Size("/out"); n != 2048000 {
		t.Fatalf("size = %d, want 2048000", n)
	}
}

func TestFDTableDup(t *testing.T) {
	f := New()
	f.Create("/x", []byte("x"), 0644)
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
	f.Create("/dev/null", nil, 0666)
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
	if n, _ := tbl.Write(w, []byte("hello")); n != 5 {
		t.Fatalf("pipe write = %d", n)
	}
	buf := make([]byte, 8)
	if n, _ := tbl.Read(r, buf); n != 5 || string(buf[:5]) != "hello" {
		t.Fatalf("pipe read = %d %q", n, buf[:5])
	}
	// Empty pipe reads 0 (caller would block).
	if n, _ := tbl.Read(r, buf); n != 0 {
		t.Fatal("empty pipe must read 0")
	}
	// Wrong-direction I/O fails.
	if _, err := tbl.Read(w, buf); err == nil {
		t.Fatal("read from write end must fail")
	}
	if _, err := tbl.Write(r, buf); err == nil {
		t.Fatal("write to read end must fail")
	}
}

func TestPipeBackpressure(t *testing.T) {
	p := NewPipe(8)
	n, _ := p.Write(make([]byte, 16))
	if n != 8 {
		t.Fatalf("overfull write accepted %d, want 8", n)
	}
	if n, _ := p.Write([]byte("x")); n != 0 {
		t.Fatal("full pipe must accept 0")
	}
	buf := make([]byte, 8)
	p.Read(buf)
	if n, _ := p.Write([]byte("x")); n != 1 {
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
			n, _ := p.Write(make([]byte, int(c)%128))
			in += n
			m, _ := p.Read(make([]byte, 64))
			out += m
		}
		for {
			m, _ := p.Read(make([]byte, 256))
			if m == 0 {
				break
			}
			out += m
		}
		return in == out && p.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
