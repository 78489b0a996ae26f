package xkernel

import "testing"

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
	if a.MemoryPages != 30 || len(a.Frames) != 30 {
		t.Fatalf("after balloon: pages=%d frames=%d", a.MemoryPages, len(a.Frames))
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
	for _, f := range b.Frames {
		owner, ok := k.Frames.Owner(f)
		if !ok || owner != b.Owner {
			t.Fatalf("frame %d owner = %d, want %d", f, owner, b.Owner)
		}
	}
}
