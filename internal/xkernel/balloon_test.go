package xkernel

import (
	"testing"

	"xcontainers/internal/mem"
)

func TestBalloonDownAndUp(t *testing.T) {
	k := New(Config{Mode: ModeXKernel, MachineFrames: 100})
	a, _ := k.CreateDomain("a", DomXContainer, 60, 1)
	if _, err := k.CreateDomain("b", DomXContainer, 60, 1); err == nil {
		t.Fatal("machine should be too small for both at full size")
	}
	// a balloons down; b now fits.
	if err := k.BalloonAdjust(a, -30); err != nil {
		t.Fatal(err)
	}
	if a.MemoryPages != 30 || k.Frames.InUse() != 30 {
		t.Fatalf("after balloon: pages=%d frames=%d", a.MemoryPages, k.Frames.InUse())
	}
	b, err := k.CreateDomain("b", DomXContainer, 60, 1)
	if err != nil {
		t.Fatalf("b should fit after ballooning: %v", err)
	}
	// a cannot balloon back past the machine limit...
	if err := k.BalloonAdjust(a, 30); err == nil {
		t.Fatal("balloon up past machine memory must fail")
	}
	// ...until b shrinks.
	if err := k.BalloonAdjust(b, -40); err != nil {
		t.Fatal(err)
	}
	if err := k.BalloonAdjust(a, 30); err != nil {
		t.Fatalf("balloon up after space freed: %v", err)
	}
	// Can't shrink below zero.
	if err := k.BalloonAdjust(b, -10000); err == nil {
		t.Fatal("balloon below held pages must fail")
	}
	// Zero is a no-op.
	if err := k.BalloonAdjust(a, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBalloonOwnership(t *testing.T) {
	// Frames released by a balloon can be claimed by another domain and
	// carry the new owner (no stale mappings possible).
	k := New(Config{Mode: ModeXKernel, MachineFrames: 10})
	a, _ := k.CreateDomain("a", DomXContainer, 10, 1)
	if err := k.BalloonAdjust(a, -5); err != nil {
		t.Fatal(err)
	}
	b, _ := k.CreateDomain("b", DomXContainer, 5, 1)
	for i := 0; i < b.MemoryPages; i++ {
		f := frameOf(t, k, b, i)
		if owner, ok := k.Frames.Owner(f); !ok || owner != b.Owner {
			t.Fatalf("frame %d owner = %d, want %d", f, owner, b.Owner)
		}
	}
}

// TestBalloonDownAcrossRanges: a domain that ballooned up holds two
// frame ranges with another domain's reservation between them.
// Ballooning down frees its highest frames first, across the gap, and
// never touches the neighbour.
func TestBalloonDownAcrossRanges(t *testing.T) {
	k := New(Config{Mode: ModeXKernel})
	a, _ := k.CreateDomain("a", DomXContainer, 10, 1) // frames 1..10
	b, _ := k.CreateDomain("b", DomXContainer, 5, 1)  // frames 11..15
	if err := k.BalloonAdjust(a, 4); err != nil {     // frames 16..19
		t.Fatal(err)
	}
	if f := frameOf(t, k, a, 12); f != 18 {
		t.Fatalf("a's frame 12 = %d, want 18 (in its second range)", f)
	}
	if err := k.BalloonAdjust(a, -7); err != nil {
		t.Fatal(err)
	}
	// a keeps frames 1..7; 8..10 and 16..19 are free.
	if a.MemoryPages != 7 || k.Frames.InUse() != 12 {
		t.Fatalf("after balloon down: a holds %d pages, %d frames in use; want 7, 12", a.MemoryPages, k.Frames.InUse())
	}
	if f := frameOf(t, k, a, 6); f != 7 {
		t.Fatalf("a's last frame = %d, want 7", f)
	}
	if _, ok := k.Frames.Nth(a.Owner, 7); ok {
		t.Fatal("a still holds an eighth frame")
	}
	for f := mem.FrameID(1); f <= 19; f++ {
		want, held := mem.OwnerID(0), false
		switch {
		case f <= 7:
			want, held = a.Owner, true
		case f >= 11 && f <= 15:
			want, held = b.Owner, true
		}
		if owner, ok := k.Frames.Owner(f); owner != want || ok != held {
			t.Fatalf("frame %d: owner %d (held %v), want %d (held %v)", f, owner, ok, want, held)
		}
	}
	if err := k.DestroyDomain(a.ID); err != nil {
		t.Fatal(err)
	}
	if k.Frames.InUse() != b.MemoryPages {
		t.Fatalf("after destroying a: %d frames in use, want b's %d", k.Frames.InUse(), b.MemoryPages)
	}
}
