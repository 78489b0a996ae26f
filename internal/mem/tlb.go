package mem

import "sync"

// TLBEntry caches one translation together with the global bit that
// lets it hit from any address space.
type TLBEntry struct {
	VPage  uint64
	Frame  FrameID
	Global bool
	AS     *AddressSpace // address space the entry was filled from
}

// TLBStats counts hits and misses for cost accounting.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// TLB is a simple fully-associative TLB with FIFO replacement. One TLB
// exists per hardware thread (pCPU in cpusim).
type TLB struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]TLBEntry // keyed by vpage
	order    []uint64            // FIFO of vpages for eviction
	Stats    TLBStats
}

// DefaultTLBCapacity approximates a modern L2 STLB (1536 entries on the
// paper's Xeon E5-2690 generation).
const DefaultTLBCapacity = 1536

// NewTLB creates a TLB with the given entry capacity (0 selects the
// default).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBCapacity
	}
	return &TLB{capacity: capacity, entries: make(map[uint64]TLBEntry)}
}

// Lookup translates vpage. On a miss it walks the page table of as,
// fills the TLB, and reports miss=true so the caller can charge the
// walk cost.
func (t *TLB) Lookup(as *AddressSpace, vpage uint64) (FrameID, bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[vpage]; ok && e.AS == as {
		t.Stats.Hits++
		return e.Frame, true, false
	}
	// Also allow a hit on a global entry filled from another address
	// space — that is exactly what the global bit means in hardware.
	if e, ok := t.entries[vpage]; ok && e.Global {
		t.Stats.Hits++
		return e.Frame, true, false
	}
	pte, ok := as.Lookup(vpage)
	if !ok {
		t.Stats.Misses++
		return 0, false, true
	}
	t.Stats.Misses++
	t.fillLocked(TLBEntry{VPage: vpage, Frame: pte.Frame, Global: pte.Global, AS: as})
	return pte.Frame, true, true
}

func (t *TLB) fillLocked(e TLBEntry) {
	if _, exists := t.entries[e.VPage]; !exists {
		for len(t.entries) >= t.capacity && len(t.order) > 0 {
			victim := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, victim)
		}
		t.order = append(t.order, e.VPage)
	}
	t.entries[e.VPage] = e
}

// Len returns the number of live entries.
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
