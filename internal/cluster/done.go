package cluster

import (
	"cmp"
	"math"
	"slices"

	"xcontainers/internal/cycles"
)

// doneRec is one buffered completion: enough to merge canonically and
// re-issue a closed-loop connection. seq is the record's position in
// its shard's buffer, stamped by sortDone so an unstable sort keeps a
// replica's own completion order among equal (at, rep) records.
type doneRec struct {
	at  cycles.Cycles
	rep int32
	seq uint32
	id  uint64
}

// sortDone orders one shard's epoch completions by (at, rep), keeping
// buffer order among equal pairs. The buffer arrives time-ordered with
// large tie groups (service cost is deterministic), so stamping each
// record's position and sorting on the strict key (at, rep, seq) gives
// the stable result at unstable-sort cost.
func sortDone(done []doneRec) {
	for k := range done {
		done[k].seq = uint32(k)
	}
	slices.SortFunc(done, func(a, b doneRec) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.rep != b.rep {
			return cmp.Compare(a.rep, b.rep)
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// doneMerge is a loser tree over S runs sorted by sortDone: each next
// costs log2(S) comparisons instead of a scan over every head. A
// replica lives on exactly one shard, so two runs never hold the same
// (at, rep) pair and the merge needs no tie-break between runs. All
// buffers are reused across barriers.
type doneMerge struct {
	runs  [][]doneRec // the sorted runs; set before reset
	heads []int       // per-run cursor
	key   []mergeKey  // per-leaf head key; exhausted and padding leaves hold endKey
	k     int         // leaf count: len(runs) rounded up to a power of two
	// tree[0] is the current winner; tree[1:k] hold the loser of each
	// internal match (leaf i sits under node (i+k)/2).
	tree []int
}

type mergeKey struct {
	at  cycles.Cycles
	rep int32
}

// endKey sorts after every record: no completion lands on the last
// representable cycle.
var endKey = mergeKey{at: math.MaxUint64, rep: math.MaxInt32}

func (a mergeKey) less(b mergeKey) bool {
	return a.at < b.at || (a.at == b.at && a.rep < b.rep)
}

// reset rewinds the cursors over the current runs and plays the
// initial tournament.
func (m *doneMerge) reset() {
	m.k = 1
	for m.k < len(m.runs) {
		m.k *= 2
	}
	m.heads = grow(m.heads, m.k)
	m.key = grow(m.key, m.k)
	m.tree = grow(m.tree, m.k)
	clear(m.heads)
	for i := range m.key {
		m.key[i] = m.headKey(i)
	}
	m.tree[0] = m.play(1)
}

// play returns the winner of the subtree under node n, recording each
// match's loser on the way up.
func (m *doneMerge) play(n int) int {
	if n >= m.k {
		return n - m.k
	}
	a, b := m.play(2*n), m.play(2*n+1)
	if m.key[b].less(m.key[a]) {
		a, b = b, a
	}
	m.tree[n] = b
	return a
}

func (m *doneMerge) headKey(i int) mergeKey {
	if i >= len(m.runs) || m.heads[i] >= len(m.runs[i]) {
		return endKey
	}
	r := &m.runs[i][m.heads[i]]
	return mergeKey{r.at, r.rep}
}

// next returns the smallest unmerged record in (at, rep) order, or nil
// once every run is exhausted.
func (m *doneMerge) next() *doneRec {
	w := m.tree[0]
	if m.key[w] == endKey {
		return nil
	}
	r := &m.runs[w][m.heads[w]]
	m.heads[w]++
	m.key[w] = m.headKey(w)
	kw := m.key[w]
	for n := (w + m.k) / 2; n >= 1; n /= 2 {
		if l := m.tree[n]; m.key[l].less(kw) {
			m.tree[n], w, kw = w, l, m.key[l]
		}
	}
	m.tree[0] = w
	return r
}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
