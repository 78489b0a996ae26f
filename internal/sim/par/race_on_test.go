//go:build race

package par

// raceEnabled reports whether the race detector instruments this
// build; its allocations would fail the zero-alloc regression tests.
const raceEnabled = true
