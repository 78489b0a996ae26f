package mem

import (
	"fmt"
	"slices"
	"testing"
)

// refFrames is the reference model FuzzFrameAllocator checks the
// extent-based allocator against: one map entry per live frame, with
// AllocN as n single allocations followed by a rollback on failure.
type refFrames struct {
	next   FrameID
	owners map[FrameID]OwnerID
	limit  int
}

func newRefFrames(limit int) *refFrames {
	return &refFrames{next: 1, owners: make(map[FrameID]OwnerID), limit: limit}
}

func (r *refFrames) alloc(owner OwnerID) (FrameID, error) {
	if r.limit > 0 && len(r.owners) >= r.limit {
		return 0, fmt.Errorf("mem: out of machine frames (%d allocated)", len(r.owners))
	}
	id := r.next
	r.next++
	r.owners[id] = owner
	return id, nil
}

func (r *refFrames) allocN(owner OwnerID, n int) ([]FrameID, error) {
	frames := make([]FrameID, 0, n)
	for i := 0; i < n; i++ {
		f, err := r.alloc(owner)
		if err != nil {
			r.freeAll(frames)
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

func (r *refFrames) freeAll(fs []FrameID) {
	for _, f := range fs {
		delete(r.owners, f)
	}
}

// Operation codes of the byte programs runFrameProgram decodes.
const (
	opAlloc    = iota // owner
	opAllocN          // owner, n%64
	opFree            // id
	opFreeRun         // lo, len%32: the sorted run [lo, lo+len)
	opFreeList        // k%8, then k ids: unsorted, possibly duplicate or free
	opFreeTail        // which earlier AllocN result, k: free its last k (0 = all)
	opOwner           // id
	numOps
)

// Ids in programs are taken modulo (next+2) of the reference model, so
// they cover every issued id plus ids never issued.
func runFrameProgram(t *testing.T, limit int, prog []byte) {
	t.Helper()
	fa, ref := NewFrameAllocator(limit), newRefFrames(limit)
	var held [][]FrameID
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
		case opAlloc:
			o := owner()
			got, gerr := fa.Alloc(o)
			want, werr := ref.alloc(o)
			if got != want || errText(gerr) != errText(werr) {
				t.Fatalf("step %d: Alloc(%d) = %d, %v; want %d, %v", step, o, got, gerr, want, werr)
			}
		case opAllocN:
			o, n := owner(), int(arg()%64)
			got, gerr := fa.AllocN(o, n)
			want, werr := ref.allocN(o, n)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) || errText(gerr) != errText(werr) {
				t.Fatalf("step %d: AllocN(%d, %d) = %v, %v; want %v, %v", step, o, n, got, gerr, want, werr)
			}
			if gerr == nil {
				held = append(held, got)
			}
		case opFree:
			f := id()
			fa.Free(f)
			ref.freeAll([]FrameID{f})
		case opFreeRun:
			lo, n := id(), FrameID(arg()%32)
			run := make([]FrameID, 0, n)
			for f := lo; f < lo+n; f++ {
				run = append(run, f)
			}
			fa.FreeAll(run)
			ref.freeAll(run)
		case opFreeList:
			ids := make([]FrameID, arg()%8)
			for i := range ids {
				ids[i] = id()
			}
			fa.FreeAll(ids)
			ref.freeAll(ids)
		case opFreeTail:
			which, k := int(arg()), int(arg())
			if len(held) == 0 {
				continue
			}
			frames := held[which%len(held)]
			if k == 0 || k > len(frames) {
				k = len(frames)
			}
			tail := frames[len(frames)-k:]
			fa.FreeAll(tail)
			ref.freeAll(tail)
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
	got, gerr := fa.Alloc(1)
	want, werr := ref.alloc(1)
	if got != want || errText(gerr) != errText(werr) {
		t.Fatalf("final: Alloc = %d, %v; want %d, %v", got, gerr, want, werr)
	}
}

// fuzzLimits are the machine budgets every frame program runs under:
// unlimited, and small enough that AllocN fails part-way.
var fuzzLimits = []int{0, 40}

// frameSeeds are the allocator's boundary cases, as byte programs.
var frameSeeds = map[string][]byte{
	"split in the middle":     {opAllocN, 1, 10, opFree, 5, opOwner, 4, opOwner, 6},
	"trim at the low end":     {opAllocN, 1, 10, opFree, 1, opOwner, 2},
	"trim at the high end":    {opAllocN, 1, 10, opFree, 10, opOwner, 9},
	"free across two extents": {opAllocN, 1, 5, opAllocN, 2, 5, opFreeRun, 3, 6},
	"balloon down a tail":     {opAllocN, 1, 10, opAllocN, 2, 4, opFreeTail, 0, 3, opAlloc, 1},
	"free a whole domain":     {opAllocN, 1, 8, opAllocN, 2, 8, opFreeTail, 0, 0, opFreeTail, 1, 0},
	"duplicate and free ids":  {opAllocN, 1, 6, opFreeList, 5, 3, 3, 7, 2, 0, opFree, 3},
	"unsorted free list":      {opAllocN, 1, 9, opFreeList, 4, 8, 2, 5, 3},
	"over-limit rollback":     {opAllocN, 1, 30, opAllocN, 2, 20, opAlloc, 3, opAllocN, 3, 10},
	"exhausted then freed":    {opAllocN, 1, 39, opAlloc, 1, opAlloc, 2, opFree, 7, opAlloc, 2},
	"same-owner adjacency":    {opAlloc, 1, opAlloc, 1, opAllocN, 1, 3, opFree, 2, opAlloc, 1},
	"gap-spanning run":        {opAllocN, 1, 4, opAllocN, 2, 4, opFree, 5, opFreeRun, 2, 7},
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
	a, _ := fa.AllocN(1, 1000)
	b, _ := fa.AllocN(2, 1000)
	if len(fa.live) != 2 {
		t.Fatalf("two domains hold %d extents, want 2", len(fa.live))
	}
	fa.Free(a[500])
	if len(fa.live) != 3 {
		t.Fatalf("after a split: %d extents, want 3", len(fa.live))
	}
	fa.FreeAll(a)
	fa.FreeAll(b)
	if len(fa.live) != 0 || fa.InUse() != 0 {
		t.Fatalf("after destroy: %d extents, %d frames in use", len(fa.live), fa.InUse())
	}
}

func TestAllocNRejectsNegativeCount(t *testing.T) {
	fa := NewFrameAllocator(0)
	if _, err := fa.AllocN(1, -1); err == nil {
		t.Fatal("AllocN(-1) must fail")
	}
	if f, _ := fa.Alloc(1); f != 1 {
		t.Fatalf("a rejected AllocN consumed ids: next frame %d, want 1", f)
	}
}
