// Package mem models the memory subsystem: machine frames, per-process
// address spaces with page-table entries, and a TLB with global-entry
// semantics.
//
// Two of the paper's mechanisms live here:
//
//   - §4.3: stock paravirtualized Linux disables the page-table global
//     bit so every process switch flushes the whole TLB; X-LibOS maps
//     itself and the X-Kernel with the global bit set, so switches
//     between processes of the same X-Container keep kernel entries,
//     while switches between different X-Containers flush everything.
//   - Isolation: every frame is owned by one container; the hypervisor
//     validates that no page-table update maps another container's
//     frame (tested as an invariant).
package mem

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// PageSize matches x86-64 4 KiB pages.
const PageSize = 4096

// FrameID names one machine frame.
type FrameID uint64

// OwnerID names a protection domain (container / VM). Owner 0 is the
// hypervisor itself.
type OwnerID uint32

// FrameAllocator hands out machine frames tagged with their owning
// protection domain.
//
// Frame ids are issued in increasing order and never reused, so the
// live frames form a sorted set of disjoint id ranges. Ownership is
// kept as those ranges (extents) rather than one entry per frame:
// booting a domain with its static reservation (§4.5: 32k–131k pages)
// appends one extent, and destroying it removes one.
type FrameAllocator struct {
	mu    sync.Mutex
	next  FrameID
	live  []extent // sorted by lo, pairwise disjoint
	inUse int
	limit int
}

// extent is the live frame range [lo, hi), all owned by owner.
type extent struct {
	lo, hi FrameID
	owner  OwnerID
}

// NewFrameAllocator creates an allocator with a total frame budget
// (machine memory / PageSize). A limit of 0 means unlimited.
func NewFrameAllocator(limit int) *FrameAllocator {
	return &FrameAllocator{next: 1, limit: limit}
}

// Alloc allocates one frame for owner. It fails when machine memory is
// exhausted — the mechanism behind the paper's observation that only
// ~250 PV / ~200 HVM instances fit on a 96 GB host (Fig. 8).
func (fa *FrameAllocator) Alloc(owner OwnerID) (FrameID, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.limit > 0 && fa.inUse >= fa.limit {
		return 0, fa.exhausted(fa.inUse)
	}
	id := fa.next
	fa.issueLocked(owner, 1)
	return id, nil
}

// AllocN allocates n consecutive frames, rolling back on failure. A
// failed call still consumes the ids of the frames that fit before the
// limit was hit, exactly as n single Allocs followed by a rollback
// would, so the ids issued afterwards do not depend on how the
// allocation was batched.
func (fa *FrameAllocator) AllocN(owner OwnerID, n int) ([]FrameID, error) {
	if n < 0 {
		return nil, fmt.Errorf("mem: negative frame count %d", n)
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.limit > 0 && fa.inUse+n > fa.limit {
		// The frames up to the limit fit (inUse never exceeds limit).
		fa.next += FrameID(fa.limit - fa.inUse)
		return nil, fa.exhausted(fa.limit)
	}
	lo := fa.next
	fa.issueLocked(owner, n)
	frames := make([]FrameID, n)
	for i := range frames {
		frames[i] = lo + FrameID(i)
	}
	return frames, nil
}

func (fa *FrameAllocator) exhausted(allocated int) error {
	return fmt.Errorf("mem: out of machine frames (%d allocated)", allocated)
}

// issueLocked hands the next n ids to owner, extending the last extent
// when it ends at the first new id and has the same owner.
func (fa *FrameAllocator) issueLocked(owner OwnerID, n int) {
	if n == 0 {
		return
	}
	lo := fa.next
	fa.next += FrameID(n)
	fa.inUse += n
	if last := len(fa.live) - 1; last >= 0 && fa.live[last].hi == lo && fa.live[last].owner == owner {
		fa.live[last].hi = fa.next
		return
	}
	fa.live = append(fa.live, extent{lo: lo, hi: fa.next, owner: owner})
}

// search returns the index of the first extent ending after f.
func (fa *FrameAllocator) search(f FrameID) int {
	return sort.Search(len(fa.live), func(i int) bool { return fa.live[i].hi > f })
}

// Owner reports the owning domain of a frame.
func (fa *FrameAllocator) Owner(f FrameID) (OwnerID, bool) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if i := fa.search(f); i < len(fa.live) && fa.live[i].lo <= f {
		return fa.live[i].owner, true
	}
	return 0, false
}

// Free releases one frame. Freeing a frame that is not live does
// nothing.
func (fa *FrameAllocator) Free(f FrameID) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.freeLocked(f, f+1)
}

// FreeAll releases a set of frames, in any order, ignoring frames that
// are not live. Consecutive ids are released as one range, so freeing a
// domain's whole reservation is a single extent removal.
func (fa *FrameAllocator) FreeAll(fs []FrameID) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	for len(fs) > 0 {
		lo, n := fs[0], 1
		for n < len(fs) && fs[n] == lo+FrameID(n) {
			n++
		}
		fa.freeLocked(lo, lo+FrameID(n))
		fs = fs[n:]
	}
}

// freeLocked releases every live frame in [lo, hi): extents inside the
// range are removed, and those straddling its ends are trimmed or split.
func (fa *FrameAllocator) freeLocked(lo, hi FrameID) {
	i := fa.search(lo)
	j := i
	for j < len(fa.live) && fa.live[j].lo < hi {
		e := fa.live[j]
		fa.inUse -= int(min(e.hi, hi) - max(e.lo, lo))
		j++
	}
	if i == j {
		return
	}
	var keep [2]extent
	n := 0
	if first := fa.live[i]; first.lo < lo {
		keep[n] = extent{lo: first.lo, hi: lo, owner: first.owner}
		n++
	}
	if last := fa.live[j-1]; last.hi > hi {
		keep[n] = extent{lo: hi, hi: last.hi, owner: last.owner}
		n++
	}
	fa.live = slices.Replace(fa.live, i, j, keep[:n]...)
}

// InUse returns the number of allocated frames.
func (fa *FrameAllocator) InUse() int {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.inUse
}

// PTE is one page-table entry.
type PTE struct {
	Frame    FrameID
	Writable bool
	// Global marks the entry as surviving CR3 switches (the §4.3
	// optimization when set on LibOS/X-Kernel mappings).
	Global bool
	// Dirty is set by kernel-mode writes that bypass write protection
	// (ABOM patches, §4.4).
	Dirty bool
	// User marks user-accessible pages; LibOS pages in X-Containers are
	// user-accessible by design (no kernel isolation), while baseline
	// Linux kernel pages are not.
	User bool
}

// AddressSpace is one page table: virtual page number -> PTE.
type AddressSpace struct {
	ID    uint64
	Owner OwnerID

	mu    sync.RWMutex
	pages map[uint64]PTE
}

var asNext uint64 = 1
var asMu sync.Mutex

// NewAddressSpace creates an empty page table owned by a domain.
func NewAddressSpace(owner OwnerID) *AddressSpace {
	asMu.Lock()
	id := asNext
	asNext++
	asMu.Unlock()
	return &AddressSpace{ID: id, Owner: owner, pages: make(map[uint64]PTE)}
}

// PageOf returns the virtual page number containing addr.
func PageOf(addr uint64) uint64 { return addr / PageSize }

// Map installs a PTE for the page containing vaddr.
func (as *AddressSpace) Map(vpage uint64, pte PTE) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pages[vpage] = pte
}

// Unmap removes the mapping for vpage.
func (as *AddressSpace) Unmap(vpage uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	delete(as.pages, vpage)
}

// Lookup walks the page table for vpage.
func (as *AddressSpace) Lookup(vpage uint64) (PTE, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	pte, ok := as.pages[vpage]
	return pte, ok
}

// MarkDirty sets the dirty bit on vpage (ABOM patch signalling).
func (as *AddressSpace) MarkDirty(vpage uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if pte, ok := as.pages[vpage]; ok {
		pte.Dirty = true
		as.pages[vpage] = pte
	}
}

// DirtyPages returns the set of dirty virtual pages (for the flush-or-
// ignore choice §4.4 leaves to X-LibOS).
func (as *AddressSpace) DirtyPages() []uint64 {
	as.mu.RLock()
	defer as.mu.RUnlock()
	var out []uint64
	for vp, pte := range as.pages {
		if pte.Dirty {
			out = append(out, vp)
		}
	}
	return out
}

// ClearDirty clears the dirty bit on vpage.
func (as *AddressSpace) ClearDirty(vpage uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if pte, ok := as.pages[vpage]; ok {
		pte.Dirty = false
		as.pages[vpage] = pte
	}
}

// Size returns the number of mapped pages.
func (as *AddressSpace) Size() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return len(as.pages)
}

// Each iterates over all mappings (order unspecified).
func (as *AddressSpace) Each(f func(vpage uint64, pte PTE)) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for vp, pte := range as.pages {
		f(vp, pte)
	}
}
