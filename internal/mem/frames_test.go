package mem

import (
	"fmt"
	"slices"
	"testing"
)

// refFrames is the reference model FuzzFrameAllocator checks the
// extent-based allocator against: one map entry per live frame, with
// AllocN as n single-frame allocations followed by a rollback on
// failure, and an owner's frames found by scanning the map.
type refFrames struct {
	next   FrameID
	owners map[FrameID]OwnerID
	limit  int
}

func newRefFrames(limit int) *refFrames {
	return &refFrames{next: 1, owners: make(map[FrameID]OwnerID), limit: limit}
}

func (r *refFrames) allocN(owner OwnerID, n int) (FrameID, error) {
	first := r.next
	var frames []FrameID
	for i := 0; i < n; i++ {
		if r.limit > 0 && len(r.owners) >= r.limit {
			for _, f := range frames {
				delete(r.owners, f)
			}
			return 0, fmt.Errorf("mem: out of machine frames (%d allocated)", len(r.owners)+len(frames))
		}
		r.owners[r.next] = owner
		frames = append(frames, r.next)
		r.next++
	}
	return first, nil
}

// held returns owner's frames in id order.
func (r *refFrames) held(owner OwnerID) []FrameID {
	var out []FrameID
	for f, o := range r.owners {
		if o == owner {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

func (r *refFrames) freeTail(owner OwnerID, k int) {
	fs := r.held(owner)
	for _, f := range fs[len(fs)-min(k, len(fs)):] {
		delete(r.owners, f)
	}
}

// Operation codes of the byte programs runFrameProgram decodes.
const (
	opAllocN    = iota // owner, n%64
	opNth              // owner, i
	opFreeTail         // owner, k: balloon down by k
	opFreeOwner        // owner: destroy
	opOwner            // id
	numOps
)

// Owners in programs are arg%3 + 1. Ids are taken modulo (next+2) of the
// reference model, so they cover every issued id plus ids never issued.
func runFrameProgram(t *testing.T, limit int, prog []byte) {
	t.Helper()
	fa, ref := NewFrameAllocator(limit), newRefFrames(limit)
	pos := 0
	arg := func() byte {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return prog[pos-1]
	}
	id := func() FrameID { return FrameID(arg()) % (ref.next + 2) }
	owner := func() OwnerID { return OwnerID(arg()%3 + 1) }
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for step := 0; pos < len(prog); step++ {
		switch op := arg() % numOps; op {
		case opAllocN:
			o, n := owner(), int(arg()%64)
			got, gerr := fa.AllocN(o, n)
			want, werr := ref.allocN(o, n)
			if got != want || errText(gerr) != errText(werr) {
				t.Fatalf("step %d: AllocN(%d, %d) = %d, %v; want %d, %v", step, o, n, got, gerr, want, werr)
			}
		case opNth:
			o, i := owner(), int(arg())
			got, gok := fa.Nth(o, i)
			var want FrameID
			held := ref.held(o)
			wok := i < len(held)
			if wok {
				want = held[i]
			}
			if got != want || gok != wok {
				t.Fatalf("step %d: Nth(%d, %d) = %d, %v; want %d, %v", step, o, i, got, gok, want, wok)
			}
		case opFreeTail:
			o, k := owner(), int(arg())
			fa.FreeTail(o, k)
			ref.freeTail(o, k)
		case opFreeOwner:
			o := owner()
			fa.FreeOwner(o)
			ref.freeTail(o, len(ref.owners))
		case opOwner:
			f := id()
			got, gok := fa.Owner(f)
			want, wok := ref.owners[f]
			if got != want || gok != wok {
				t.Fatalf("step %d: Owner(%d) = %d, %v; want %d, %v", step, f, got, gok, want, wok)
			}
		}
		if got, want := fa.InUse(), len(ref.owners); got != want {
			t.Fatalf("step %d: InUse = %d, want %d", step, got, want)
		}
	}
	for f := FrameID(0); f < ref.next+2; f++ {
		got, gok := fa.Owner(f)
		want, wok := ref.owners[f]
		if got != want || gok != wok {
			t.Fatalf("final: Owner(%d) = %d, %v; want %d, %v", f, got, gok, want, wok)
		}
	}
	// The next id issued must match too: failed AllocNs consume ids.
	got, gerr := fa.AllocN(1, 1)
	want, werr := ref.allocN(1, 1)
	if got != want || errText(gerr) != errText(werr) {
		t.Fatalf("final: AllocN(1, 1) = %d, %v; want %d, %v", got, gerr, want, werr)
	}
}

// fuzzLimits are the machine budgets every frame program runs under:
// unlimited, and small enough that AllocN fails part-way.
var fuzzLimits = []int{0, 40}

// frameSeeds are the allocator's boundary cases, as byte programs. Owner
// arguments 0, 1 and 2 name owners 1, 2 and 3.
var frameSeeds = map[string][]byte{
	// Owner 1's frames are split by owner 2's extent; Nth steps over it.
	"split in the middle": {opAllocN, 0, 10, opAllocN, 1, 4, opAllocN, 0, 6, opNth, 0, 9, opNth, 0, 10, opOwner, 12},
	// A balloon-down frees owner 1's high extent and trims its low one.
	"trim at the low end":  {opAllocN, 0, 5, opAllocN, 1, 3, opAllocN, 0, 3, opFreeTail, 0, 5, opNth, 0, 2, opNth, 0, 3, opOwner, 3, opOwner, 4},
	"trim at the high end": {opAllocN, 0, 10, opFreeTail, 0, 1, opOwner, 10, opOwner, 9, opNth, 0, 8, opNth, 0, 9},
	// One balloon-down frees across two of owner 1's extents.
	"free across two extents": {opAllocN, 0, 5, opAllocN, 1, 5, opAllocN, 0, 5, opFreeTail, 0, 8, opNth, 0, 1, opNth, 0, 2},
	"balloon down a tail":     {opAllocN, 0, 10, opAllocN, 1, 4, opFreeTail, 0, 3, opAllocN, 0, 1, opNth, 0, 7, opNth, 0, 8},
	"free a whole domain":     {opAllocN, 0, 8, opAllocN, 1, 8, opFreeOwner, 0, opFreeOwner, 1, opAllocN, 2, 1},
	// Frees of frames already free, or of more than an owner holds.
	"duplicate and free ids": {opAllocN, 0, 6, opFreeTail, 0, 3, opFreeTail, 0, 3, opFreeTail, 0, 9, opFreeOwner, 0, opFreeOwner, 2, opOwner, 3, opOwner, 7, opNth, 0, 0},
	// Domains torn down in an order other than the one they booted in.
	"unsorted free list":   {opAllocN, 0, 3, opAllocN, 1, 3, opAllocN, 2, 3, opFreeOwner, 1, opFreeOwner, 2, opNth, 0, 2, opFreeOwner, 0, opOwner, 2},
	"over-limit rollback":  {opAllocN, 0, 30, opAllocN, 1, 20, opAllocN, 2, 1, opAllocN, 2, 10},
	"exhausted then freed": {opAllocN, 0, 39, opAllocN, 0, 1, opAllocN, 1, 1, opFreeTail, 0, 7, opAllocN, 1, 1, opNth, 1, 0},
	"same-owner adjacency": {opAllocN, 0, 1, opAllocN, 0, 1, opAllocN, 0, 3, opFreeTail, 0, 2, opAllocN, 0, 1, opNth, 0, 3},
	// A balloon-down spanning the gap another owner's freed frames left.
	"gap-spanning run": {opAllocN, 0, 4, opAllocN, 1, 4, opAllocN, 0, 4, opFreeTail, 1, 2, opFreeTail, 0, 6, opNth, 0, 1, opOwner, 5},
}

func TestFrameAllocatorSeeds(t *testing.T) {
	for name, prog := range frameSeeds {
		for _, limit := range fuzzLimits {
			t.Run(fmt.Sprintf("%s/limit=%d", name, limit), func(t *testing.T) {
				runFrameProgram(t, limit, prog)
			})
		}
	}
}

// FuzzFrameAllocator checks the extent-based allocator against the
// per-frame reference model on arbitrary operation sequences.
func FuzzFrameAllocator(f *testing.F) {
	for _, prog := range frameSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// A few hundred operations reach every extent shape; longer
		// programs only slow the minimization of each new input.
		prog = prog[:min(len(prog), 512)]
		for _, limit := range fuzzLimits {
			runFrameProgram(t, limit, prog)
		}
	})
}

func TestFrameExtentsStayCompact(t *testing.T) {
	fa := NewFrameAllocator(0)
	fa.AllocN(1, 1000)
	fa.AllocN(2, 1000)
	if len(fa.live) != 2 {
		t.Fatalf("two domains hold %d extents, want 2", len(fa.live))
	}
	fa.FreeTail(1, 500)
	if len(fa.live) != 2 {
		t.Fatalf("after a balloon down: %d extents, want 2", len(fa.live))
	}
	fa.AllocN(1, 10)
	if len(fa.live) != 3 {
		t.Fatalf("after a balloon up: %d extents, want 3", len(fa.live))
	}
	fa.FreeOwner(1)
	fa.FreeOwner(2)
	if len(fa.live) != 0 || fa.InUse() != 0 {
		t.Fatalf("after destroy: %d extents, %d frames in use", len(fa.live), fa.InUse())
	}
}

func TestAllocNRejectsNegativeCount(t *testing.T) {
	fa := NewFrameAllocator(0)
	if _, err := fa.AllocN(1, -1); err == nil {
		t.Fatal("AllocN(-1) must fail")
	}
	if f, _ := fa.AllocN(1, 1); f != 1 {
		t.Fatalf("a rejected AllocN consumed ids: next frame %d, want 1", f)
	}
}
