package arch

import (
	"cmp"
	"slices"
)

// StackMem is word-granular stack memory. The previous representation
// was one map[uint64]uint64 keyed by byte address, which put a hash +
// bucket walk (and, on push, a map insert) on every stack operation —
// and every vsyscall-converted system call does at least three (push
// return address, switch stacks, pop). This layout is paged instead:
// 8-byte-aligned words live in dense 4 KiB pages indexed by address
// bits, with a one-entry page cache in front, so the common
// push/pop/read sequence is two shifts and an array index. The handful
// of possible unaligned addresses (a program moving a computed value
// into RSP) fall back to an exact-keyed map with the old semantics.
//
// Load-after-pop still reads zero, exactly like the delete-on-pop map
// did: LoadDelete zeroes the word it returns.
type StackMem struct {
	lastPage uint64
	lastData *[stackPageWords]uint64

	// home is the first page ever touched, stored inline so the common
	// single-page stack (a user program that never switches stacks)
	// costs no heap page and no map — it rides along in the CPU's own
	// allocation. Further pages fall back to the heap map.
	homePage uint64
	homeSet  bool
	home     [stackPageWords]uint64

	pages      map[uint64]*[stackPageWords]uint64
	misaligned map[uint64]uint64
}

// stackPageWords is one simulated page of stack, in 8-byte words.
const stackPageWords = PageSize / 8

func (s *StackMem) page(pg uint64) *[stackPageWords]uint64 {
	if !s.homeSet || pg == s.homePage {
		s.homePage, s.homeSet = pg, true
		s.lastPage, s.lastData = pg, &s.home
		return &s.home
	}
	d := s.pages[pg]
	if d == nil {
		if s.pages == nil {
			s.pages = make(map[uint64]*[stackPageWords]uint64)
		}
		d = new([stackPageWords]uint64)
		s.pages[pg] = d
	}
	s.lastPage, s.lastData = pg, d
	return d
}

// lookup returns the page's words if the page exists, else nil. Unlike
// page it never claims the home slot, so loads of untouched pages stay
// allocation- and state-free.
func (s *StackMem) lookup(pg uint64) *[stackPageWords]uint64 {
	if s.homeSet && pg == s.homePage {
		return &s.home
	}
	return s.pages[pg]
}

// Store writes the word at addr.
func (s *StackMem) Store(addr, v uint64) {
	if addr&7 != 0 {
		if s.misaligned == nil {
			s.misaligned = make(map[uint64]uint64)
		}
		s.misaligned[addr] = v
		return
	}
	d := s.lastData
	if pg := addr / PageSize; pg != s.lastPage || d == nil {
		d = s.page(pg)
	}
	d[(addr/8)%stackPageWords] = v
}

// Load reads the word at addr; absent words read as zero.
func (s *StackMem) Load(addr uint64) uint64 {
	if addr&7 != 0 {
		return s.misaligned[addr]
	}
	d := s.lastData
	if pg := addr / PageSize; pg != s.lastPage || d == nil {
		if d = s.lookup(pg); d == nil {
			return 0
		}
		s.lastPage, s.lastData = pg, d
	}
	return d[(addr/8)%stackPageWords]
}

// LoadDelete pops the word at addr: it returns the stored value and
// clears the slot, so a later Load reads zero (the map representation's
// delete-on-pop semantics).
func (s *StackMem) LoadDelete(addr uint64) uint64 {
	if addr&7 != 0 {
		v := s.misaligned[addr]
		delete(s.misaligned, addr)
		return v
	}
	d := s.lastData
	if pg := addr / PageSize; pg != s.lastPage || d == nil {
		if d = s.lookup(pg); d == nil {
			return 0
		}
		s.lastPage, s.lastData = pg, d
	}
	w := &d[(addr/8)%stackPageWords]
	v := *w
	*w = 0
	return v
}

// Reset clears all stack contents in place, reusing the pages already
// allocated so a reset-and-rerun loop (benchmark repetitions, warm-up
// passes) allocates nothing in steady state.
func (s *StackMem) Reset() {
	if s.homeSet {
		s.home = [stackPageWords]uint64{}
	}
	for _, d := range s.pages {
		*d = [stackPageWords]uint64{}
	}
	for k := range s.misaligned {
		delete(s.misaligned, k)
	}
	s.lastPage, s.lastData = 0, nil
}

// StackWord is one stack word and its byte address.
type StackWord struct{ Addr, Val uint64 }

// Snapshot returns the live (non-zero) words in address order — the
// checkpointable representation, one fixed sequence for one stack
// (zero-valued words are indistinguishable from absent ones: they load
// as zero either way).
func (s *StackMem) Snapshot() []StackWord {
	var out []StackWord
	words := func(pg uint64, d *[stackPageWords]uint64) {
		for i, v := range d {
			if v != 0 {
				out = append(out, StackWord{pg*PageSize + uint64(i)*8, v})
			}
		}
	}
	if s.homeSet {
		words(s.homePage, &s.home)
	}
	for pg, d := range s.pages {
		words(pg, d)
	}
	for k, v := range s.misaligned {
		if v != 0 {
			out = append(out, StackWord{k, v})
		}
	}
	slices.SortFunc(out, func(a, b StackWord) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// LoadSnapshot replaces the stack contents with a Snapshot (the
// restore half of checkpoint/migration).
func (s *StackMem) LoadSnapshot(words []StackWord) {
	s.Reset()
	for _, w := range words {
		s.Store(w.Addr, w.Val)
	}
}
