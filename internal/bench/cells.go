package bench

import (
	"cmp"
	"runtime"

	"xcontainers/internal/sim/par"
)

// runCells computes the n independent cells of one experiment on a
// par.Pool of min(GOMAXPROCS, n) workers and returns their results in
// index order. Each cell builds its own runtime from a fixed
// configuration and writes only its own slot, so the results, and the
// rows an experiment assembles from them afterwards, are the same for
// any worker count or claim order. On failure it returns the error of
// the lowest failing index: the one a serial loop would have stopped
// at.
func runCells[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	pool := par.New(min(runtime.GOMAXPROCS(0), n))
	defer pool.Close()
	pool.Run(n, func(i int) { out[i], errs[i] = cell(i) })
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
