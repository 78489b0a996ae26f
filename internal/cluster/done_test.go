package cluster

import (
	"slices"
	"testing"

	"xcontainers/internal/cycles"
)

// decodeDone turns bytes into one barrier's per-shard completion
// buffers, shaped like the sharded engine's: the first byte picks the
// shard count S in [1, 8]; each following byte pair appends one record
// to shard b0%S. A shard's clock advances only when b0's bits 3-5 are
// all set, so most records tie on their instant; reps are drawn from
// eight per shard with rep%S == shard, so a replica often completes
// more than once at one instant, as a multi-server replica does. Ids
// count up in append order.
func decodeDone(data []byte) [][]doneRec {
	if len(data) == 0 {
		return nil
	}
	s := 1 + int(data[0])%8
	runs := make([][]doneRec, s)
	clock := make([]cycles.Cycles, s)
	var id uint64
	for k := 1; k+1 < len(data); k += 2 {
		b0, b1 := data[k], data[k+1]
		sh := int(b0) % s
		if (b0>>3)&7 == 7 {
			clock[sh] += 1 + cycles.Cycles(b1>>6)
		}
		id++
		runs[sh] = append(runs[sh], doneRec{at: clock[sh], rep: int32(int(b1%8)*s + sh), id: id})
	}
	return runs
}

// oracleDone is the order the barrier used before per-shard sorting:
// every shard's buffer concatenated in shard order, then one global
// stable sort by (at, rep).
func oracleDone(runs [][]doneRec) []doneRec {
	var all []doneRec
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.SortStableFunc(all, func(a, b doneRec) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.rep != b.rep {
			if a.rep < b.rep {
				return -1
			}
			return 1
		}
		return 0
	})
	return all
}

// mergeAll drains m over runs, which must already be sorted.
func mergeAll(m *doneMerge, runs [][]doneRec) []doneRec {
	m.runs = append(m.runs[:0], runs...)
	m.reset()
	var out []doneRec
	for r := m.next(); r != nil; r = m.next() {
		out = append(out, *r)
	}
	return out
}

// checkDoneMerge requires sortDone per run plus the S-way merge to
// reproduce the oracle's order exactly, twice over the same merger
// (reset must rewind everything a previous merge left behind).
func checkDoneMerge(t *testing.T, m *doneMerge, data []byte) {
	t.Helper()
	runs := decodeDone(data)
	want := oracleDone(runs)
	for _, r := range runs {
		sortDone(r)
	}
	for pass := 0; pass < 2; pass++ {
		got := mergeAll(m, runs)
		if len(got) != len(want) {
			t.Fatalf("pass %d: merged %d records, want %d", pass, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.at != w.at || g.rep != w.rep || g.id != w.id {
				t.Fatalf("pass %d: record %d = (at %d, rep %d, id %d), want (at %d, rep %d, id %d)",
					pass, i, g.at, g.rep, g.id, w.at, w.rep, w.id)
			}
		}
	}
}

// doneSeeds are the merge's boundary cases, as byte programs. Each
// record is two bytes: shard selector (bits 3-5 all set advance that
// shard's clock) and rep selector.
var doneSeeds = map[string][]byte{
	"empty":                  {},
	"single shard":           {0, 0, 3, 0, 1, 0x38, 2, 0, 5, 0x3f, 0x41, 0, 1},
	"all at one instant":     {3, 0, 7, 1, 6, 2, 5, 3, 4, 0, 3, 1, 2, 2, 1, 3, 0},
	"an empty shard":         {2, 0, 1, 2, 0, 0x38, 1, 5, 3, 2, 2, 0x39, 0, 0, 1},
	"replica twice at once":  {1, 0, 5, 0, 5, 1, 5, 0, 5, 0x38, 5, 0, 5},
	"eight shards, advances": {7, 0x38, 1, 0x3f, 2, 0x3a, 0xc3, 0x3d, 4, 5, 9, 0x3e, 0x46, 0x3f, 7, 0, 0, 1, 1},
	// In ASCII, '0' picks one shard and, in a pair, a completion at
	// rep 0 without a clock advance ('1' picks rep 1): twelve
	// completions of one replica at one instant, enough to take the
	// unstable sort past its insertion-sort cutoff.
	"replica twelve times at once": []byte("000000000000000000000000100"),
	"interleaved clocks":           {1, 0x38, 0x40, 1, 0, 0x39, 0, 0, 1, 0x38, 0xc0, 1, 2, 0x39, 3},
}

func TestDoneMergeSeeds(t *testing.T) {
	var m doneMerge // one merger across seeds: buffers shrink and grow
	for name, data := range doneSeeds {
		t.Run(name, func(t *testing.T) { checkDoneMerge(t, &m, data) })
	}
}

// FuzzDoneMerge checks the per-shard sort plus loser-tree merge
// against the global stable sort it replaced, on arbitrary barriers.
func FuzzDoneMerge(f *testing.F) {
	for _, data := range doneSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4096)]
		var m doneMerge
		checkDoneMerge(t, &m, data)
	})
}
