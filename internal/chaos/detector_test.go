package chaos

import "testing"

// TestDetectorHysteresis walks the eject/readmit cycle: three
// consecutive failures eject, two consecutive successes readmit, and
// interleaved outcomes reset the streaks both ways.
func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(3, 2)
	d.Grow(2)

	// Two failures then a success: streak resets, no ejection.
	if tr := d.Observe(0, false); tr != None {
		t.Fatalf("fail 1: %v", tr)
	}
	if tr := d.Observe(0, false); tr != None {
		t.Fatalf("fail 2: %v", tr)
	}
	if tr := d.Observe(0, true); tr != None {
		t.Fatalf("recover: %v", tr)
	}
	if d.Ejected(0) {
		t.Fatal("ejected after interrupted streak")
	}

	// Three consecutive failures eject exactly once.
	d.Observe(0, false)
	d.Observe(0, false)
	if tr := d.Observe(0, false); tr != Eject {
		t.Fatalf("fail 3: %v", tr)
	}
	if !d.Ejected(0) {
		t.Fatal("not ejected")
	}
	if tr := d.Observe(0, false); tr != None {
		t.Fatalf("fail while out: %v", tr)
	}

	// One success while out is not enough; an interleaved failure
	// resets the healthy streak.
	if tr := d.Observe(0, true); tr != None {
		t.Fatalf("ok 1: %v", tr)
	}
	if tr := d.Observe(0, false); tr != None {
		t.Fatalf("relapse: %v", tr)
	}
	if tr := d.Observe(0, true); tr != None {
		t.Fatalf("ok 1 again: %v", tr)
	}
	if tr := d.Observe(0, true); tr != Readmit {
		t.Fatalf("ok 2: %v", tr)
	}
	if d.Ejected(0) {
		t.Fatal("still ejected after readmit")
	}

	// Replica 1 was untouched throughout.
	if d.Ejected(1) {
		t.Fatal("bystander ejected")
	}
}

func TestDetectorForget(t *testing.T) {
	d := NewDetector(1, 1)
	d.Grow(1)
	if tr := d.Observe(0, false); tr != Eject {
		t.Fatalf("eject: %v", tr)
	}
	d.Forget(0)
	if d.Ejected(0) {
		t.Fatal("ejected after Forget")
	}
}

func TestDetectorObserveAllocs(t *testing.T) {
	d := NewDetector(3, 2)
	d.Grow(64)
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			for i := 0; i < 64; i++ {
				d.Observe(i, i%7 != 0)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times in 1000 rounds, want 0", allocs)
	}
}
