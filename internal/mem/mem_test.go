package mem

import (
	"testing"
	"testing/quick"
)

func TestFrameAllocatorOwnership(t *testing.T) {
	fa := NewFrameAllocator(0)
	f1, err := fa.AllocN(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fa.AllocN(2, 1)
	if f1 == f2 {
		t.Fatal("frames must be unique")
	}
	if o, ok := fa.Owner(f1); !ok || o != 1 {
		t.Fatalf("owner(f1) = %d,%v", o, ok)
	}
	fa.FreeOwner(1)
	if _, ok := fa.Owner(f1); ok {
		t.Fatal("freed frame must have no owner")
	}
	if o, ok := fa.Owner(f2); !ok || o != 2 {
		t.Fatalf("freeing owner 1 disturbed f2: owner %d,%v", o, ok)
	}
}

func TestFrameAllocatorLimitAndRollback(t *testing.T) {
	fa := NewFrameAllocator(10)
	if _, err := fa.AllocN(1, 8); err != nil {
		t.Fatal(err)
	}
	// This must fail and roll back, leaving exactly 8 in use.
	if _, err := fa.AllocN(2, 5); err == nil {
		t.Fatal("over-limit allocation must fail")
	}
	if fa.InUse() != 8 {
		t.Fatalf("in use = %d, want 8 after rollback", fa.InUse())
	}
}

func TestAddressSpaceBasics(t *testing.T) {
	as := NewAddressSpace(1)
	as.Map(10, PTE{Frame: 5, Writable: true})
	pte, ok := as.Lookup(10)
	if !ok || pte.Frame != 5 || !pte.Writable {
		t.Fatalf("lookup = %+v, %v", pte, ok)
	}
	as.MarkDirty(10)
	if d := as.DirtyPages(); len(d) != 1 || d[0] != 10 {
		t.Fatalf("dirty = %v", d)
	}
	as.ClearDirty(10)
	if d := as.DirtyPages(); len(d) != 0 {
		t.Fatalf("dirty after clear = %v", d)
	}
	as.Unmap(10)
	if _, ok := as.Lookup(10); ok {
		t.Fatal("unmapped page still present")
	}
}

// TestAddressSpaceIDsUnique: an address space is identified by its
// pointer, so a non-global entry filled from one never hits for
// another, even one of the same owner mapping the same page.
func TestAddressSpaceIDsUnique(t *testing.T) {
	a, b := NewAddressSpace(1), NewAddressSpace(1)
	if a == b {
		t.Fatal("address spaces must be distinct")
	}
	a.Map(7, PTE{Frame: 3})
	b.Map(7, PTE{Frame: 4})
	tlb := NewTLB(4)
	tlb.Lookup(a, 7)
	if f, ok, miss := tlb.Lookup(b, 7); !ok || !miss || f != 4 {
		t.Fatalf("lookup from b = frame %d, ok %v, miss %v; want a miss to frame 4", f, ok, miss)
	}
}

func TestTLBHitMiss(t *testing.T) {
	as := NewAddressSpace(1)
	as.Map(7, PTE{Frame: 3})
	tlb := NewTLB(4)

	f, ok, miss := tlb.Lookup(as, 7)
	if !ok || f != 3 || !miss {
		t.Fatalf("first lookup = %v,%v,%v", f, ok, miss)
	}
	_, ok, miss = tlb.Lookup(as, 7)
	if !ok || miss {
		t.Fatal("second lookup must hit")
	}
	if _, ok, _ := tlb.Lookup(as, 99); ok {
		t.Fatal("unmapped page must fail")
	}
	if tlb.Stats.Hits != 1 || tlb.Stats.Misses != 2 {
		t.Errorf("stats = %+v", tlb.Stats)
	}
}

func TestTLBGlobalSurvivesNonGlobalFlush(t *testing.T) {
	// Lookup's address-space check stands in for the CR3-write flush:
	// a global entry filled from one address space hits from another,
	// the X-LibOS sharing property the global bit exists for (§4.3),
	// while a non-global entry from another space must walk this one.
	as := NewAddressSpace(1)
	as.Map(1, PTE{Frame: 1, Global: true})
	as.Map(2, PTE{Frame: 2})
	tlb := NewTLB(8)
	tlb.Lookup(as, 1)
	tlb.Lookup(as, 2)
	other := NewAddressSpace(1)
	if f, ok, miss := tlb.Lookup(other, 1); !ok || miss || f != 1 {
		t.Fatalf("global entry from another space = %v,%v,%v; want a hit on frame 1", f, ok, miss)
	}
	other.Map(2, PTE{Frame: 9})
	if f, ok, miss := tlb.Lookup(other, 2); !ok || !miss || f != 9 {
		t.Fatalf("non-global entry from another space = %v,%v,%v; want a miss on frame 9", f, ok, miss)
	}
}

func TestTLBEviction(t *testing.T) {
	as := NewAddressSpace(1)
	for i := uint64(0); i < 10; i++ {
		as.Map(i, PTE{Frame: FrameID(i + 1)})
	}
	tlb := NewTLB(4)
	for i := uint64(0); i < 10; i++ {
		tlb.Lookup(as, i)
	}
	if tlb.Len() > 4 {
		t.Fatalf("TLB exceeded capacity: %d", tlb.Len())
	}
}

func TestTLBCapacityQuick(t *testing.T) {
	// Property: the TLB never exceeds its capacity under arbitrary
	// lookup sequences.
	f := func(pages []uint8) bool {
		as := NewAddressSpace(1)
		for i := uint64(0); i < 256; i++ {
			as.Map(i, PTE{Frame: FrameID(i + 1), Global: i%7 == 0})
		}
		tlb := NewTLB(16)
		for _, p := range pages {
			tlb.Lookup(as, uint64(p))
			if tlb.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
}
