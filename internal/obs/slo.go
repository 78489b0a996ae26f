package obs

// SLOGuard watches windowed latency and error-rate signals against
// ceilings and trips after Consecutive breaching windows. It is the
// rollout controller's rollback trigger, but deliberately generic:
// feed it any (p99, error-rate) window series.
type SLOGuard struct {
	// MaxP99US is the window p99 ceiling in microseconds (0 = off).
	MaxP99US float64
	// MaxErrorRate is the window error-fraction ceiling (0 = off; a
	// value >= 1 can never trip, which callers use to disable it
	// explicitly while keeping the p99 arm).
	MaxErrorRate float64
	// Consecutive is how many breaching windows in a row trip the
	// guard (values < 1 act as 1).
	Consecutive int

	streak int
}

// Observe feeds one closed window. breach reports whether this window
// violated a ceiling; trip reports whether the consecutive-breach
// threshold was crossed (the rollback signal).
func (g *SLOGuard) Observe(p99us, errRate float64) (breach, trip bool) {
	breach = (g.MaxP99US > 0 && p99us > g.MaxP99US) ||
		(g.MaxErrorRate > 0 && errRate > g.MaxErrorRate)
	if !breach {
		g.streak = 0
		return false, false
	}
	g.streak++
	need := g.Consecutive
	if need < 1 {
		need = 1
	}
	return true, g.streak >= need
}

// Reset clears the streak (a new rollout phase).
func (g *SLOGuard) Reset() {
	g.streak = 0
}
