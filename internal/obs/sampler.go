package obs

import (
	"fmt"
	"io"
	"strconv"

	"xcontainers/internal/cycles"
)

// WindowRow is one window of the materialized time series. Counter
// columns are per-window deltas; InFlight is the request-level
// queue-depth gauge at window end (admissions minus completions);
// BusyCores is completed work per window in units of cores; the
// percentiles come from the window's own latency histogram.
type WindowRow struct {
	StartUS      float64  `json:"start_us"`
	Arrived      uint64   `json:"arrived,omitempty"`
	Served       uint64   `json:"served,omitempty"`
	Erred        uint64   `json:"erred,omitempty"`
	Dropped      uint64   `json:"dropped,omitempty"`
	Timeouts     uint64   `json:"timeouts,omitempty"`
	Retries      uint64   `json:"retries,omitempty"`
	Hedges       uint64   `json:"hedges,omitempty"`
	Wasted       uint64   `json:"wasted,omitempty"`
	BudgetDenied uint64   `json:"budget_denied,omitempty"`
	InFlight     int64    `json:"in_flight"`
	BusyCores    float64  `json:"busy_cores,omitempty"`
	P50US        float64  `json:"p50_us,omitempty"`
	P95US        float64  `json:"p95_us,omitempty"`
	P99US        float64  `json:"p99_us,omitempty"`
	RetryBudget  *float64 `json:"retry_budget_min,omitempty"`
}

// Mark is a point annotation on the series: an autoscale action, a
// migration, a node failure.
type Mark struct {
	AtUS   float64 `json:"at_us"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// TimeSeries is the deterministic windowed view of one run — the
// "time_series" report section and the CSV export's source.
type TimeSeries struct {
	WindowUS     float64     `json:"window_us"`
	Windows      []WindowRow `json:"windows"`
	Marks        []Mark      `json:"marks,omitempty"`
	TraceRecords uint64      `json:"trace_records,omitempty"`
	TraceDropped uint64      `json:"trace_dropped,omitempty"`
	// EventsFired is the kernel-layer roll-up: events dispatched across
	// every engine of the run. Invariant across shard layouts — each
	// model event (arrival, service completion, timer) fires exactly
	// once on whichever engine owns it.
	EventsFired uint64 `json:"events_fired,omitempty"`
}

// csvHeader is the fixed CSV column set, one column per WindowRow
// field, in declaration order.
const csvHeader = "start_us,arrived,served,erred,dropped,timeouts,retries,hedges,wasted,budget_denied,in_flight,busy_cores,p50_us,p95_us,p99_us,retry_budget_min\n"

// WriteCSV renders the series as CSV with a fixed header, one row per
// window. Floats format shortest-round-trip, so output is
// byte-deterministic.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for i := range ts.Windows {
		r := &ts.Windows[i]
		budget := ""
		if r.RetryBudget != nil {
			budget = f(*r.RetryBudget)
		}
		_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s\n",
			f(r.StartUS), r.Arrived, r.Served, r.Erred, r.Dropped,
			r.Timeouts, r.Retries, r.Hedges, r.Wasted, r.BudgetDenied,
			r.InFlight, f(r.BusyCores), f(r.P50US), f(r.P95US), f(r.P99US), budget)
		if err != nil {
			return err
		}
	}
	return nil
}

// wrow is a window's accumulation state. All fields aggregate
// order-independently (counts, sums, minima, histogram buckets), which
// is what makes the materialized series invariant to execution layout.
type wrow struct {
	arrived, served, erred, dropped   uint64
	timeouts, retries, hedges, wasted uint64
	budgetDenied                      uint64
	busy                              uint64 // Σ completed cost, cycles
	budgetMin                         uint64 // tokens ×1000; ^0 = unset
	p50, p95, p99                     cycles.Cycles
	// h is the window's latency histogram: nil until its first served
	// record, back in the sampler's pool once the window is sealed or
	// absorbed.
	h *Histogram
}

// count adds n to the counter column of a count-only name; other names
// leave the row as it is.
func (r *wrow) count(name uint16, n uint64) {
	switch name {
	case NameArrive:
		r.arrived += n
	case NameErred:
		r.erred += n
	case NameDropped:
		r.dropped += n
	case NameTimeout:
		r.timeouts += n
	case NameRetry:
		r.retries += n
	case NameHedge:
		r.hedges += n
	case NameWasted:
		r.wasted += n
	case NameBudgetDenied:
		r.budgetDenied += n
	}
}

// add folds another unsealed row's counters and gauge into r; the
// histogram merges in Sampler.Absorb, which owns the pool.
func (r *wrow) add(o *wrow) {
	r.arrived += o.arrived
	r.served += o.served
	r.erred += o.erred
	r.dropped += o.dropped
	r.timeouts += o.timeouts
	r.retries += o.retries
	r.hedges += o.hedges
	r.wasted += o.wasted
	r.budgetDenied += o.budgetDenied
	r.busy += o.busy
	r.budgetMin = min(r.budgetMin, o.budgetMin)
}

// Sampler accumulates records into fixed windows of virtual time and
// materializes the TimeSeries. Feeding is order-independent within a
// window; sealing (which computes percentiles and recycles the
// histogram) must only cover windows that can receive no more records.
// Single-engine owners set AutoSeal and let monotone virtual time do
// it. The sharded cluster gives each shard a sampler of its own, fed
// in parallel and never sealed, and at each barrier the central
// sampler Absorbs the shard windows that can no longer change and
// then seals up to the barrier time.
type Sampler struct {
	// AutoSeal seals windows as the feed advances past them. Only safe
	// when records arrive in nondecreasing virtual-time order (a single
	// engine); the sharded path seals explicitly at barriers.
	AutoSeal bool

	window  cycles.Cycles
	horizon cycles.Cycles
	rows    []wrow
	sealed  int          // windows [0, sealed) are final: they take no more records
	free    []*Histogram // reset histograms of sealed or absorbed windows
	marks   []Mark

	// Window cache: consecutive records are overwhelmingly
	// time-adjacent, so the common feed path skips windowOf's divide.
	// curEnd == 0 means cold.
	curIdx   int
	curStart cycles.Cycles
	curEnd   cycles.Cycles
}

// NewSampler creates a sampler with the given window and horizon. Each
// window that sees a served record holds one latency histogram until
// it is sealed; histograms are pooled and reset, not re-made, once
// warm.
func NewSampler(window, horizon cycles.Cycles) *Sampler {
	if window <= 0 {
		window = cycles.FromMicros(1000)
	}
	n := int(horizon/window) + 1
	return &Sampler{window: window, horizon: horizon, rows: make([]wrow, 0, n)}
}

// Window returns the configured window width.
func (s *Sampler) Window() cycles.Cycles { return s.window }

// grow extends the series through window w.
func (s *Sampler) grow(w int) {
	for len(s.rows) <= w {
		s.rows = append(s.rows, wrow{budgetMin: ^uint64(0)})
	}
}

// move points the window cache at the window containing at, growing
// the series as virtual time advances. Feeds call it only on a miss,
// so the common path is two compares.
func (s *Sampler) move(at cycles.Cycles) {
	w := s.windowOf(at)
	s.grow(w)
	s.curIdx = w
	s.curStart = cycles.Cycles(w) * s.window
	s.curEnd = s.curStart + s.window
}

// windowOf returns the window index a timestamp lands in.
func (s *Sampler) windowOf(at cycles.Cycles) int {
	w := int(at / s.window)
	if s.horizon > 0 && at >= s.horizon {
		w = int((s.horizon - 1) / s.window) // horizon-instant records fold into the last window
	}
	return w
}

// hist returns r's latency histogram, taking one from the pool on the
// window's first served record.
func (s *Sampler) hist(r *wrow) *Histogram {
	if r.h == nil {
		if n := len(s.free); n > 0 {
			r.h = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			r.h = new(Histogram)
		}
	}
	return r.h
}

// release resets r's histogram, if it has one, into the pool.
func (s *Sampler) release(r *wrow) {
	if r.h != nil {
		r.h.Reset()
		s.free = append(s.free, r.h)
		r.h = nil
	}
}

// Feed routes one record into its window. Safe on a nil receiver.
// Span records and queue-level depth records pass through untouched —
// they are trace material, not series columns — and so do instants
// that become marks, which come from the owner's event log.
func (s *Sampler) Feed(at cycles.Cycles, key, a, b uint64) {
	if s == nil {
		return
	}
	name := KeyName(key)
	if name < NameArrive || name > NameBudget { // NameArrive..NameBudget are the series' names
		return
	}
	if at < s.curStart || at >= s.curEnd {
		s.move(at)
	}
	if s.curIdx < s.sealed {
		return // a straggler past a seal
	}
	r := &s.rows[s.curIdx]
	switch name {
	case NameServed:
		r.served++
		r.busy += b
		s.hist(r).Observe(cycles.Cycles(a))
	case NameBudget:
		r.budgetMin = min(r.budgetMin, a)
	default:
		r.count(name, 1)
	}
	if s.AutoSeal {
		s.Seal(at)
	}
}

// FeedN counts n records of a count-only name (arrive, erred, dropped
// and the ingress instants) sharing at and key at once: admissions of
// a batch, or of one open-loop arrival, in the sharded cluster.
func (s *Sampler) FeedN(at cycles.Cycles, key uint64, n uint64) {
	if s == nil || n == 0 {
		return
	}
	if at < s.curStart || at >= s.curEnd {
		s.move(at)
	}
	if s.curIdx < s.sealed {
		return
	}
	s.rows[s.curIdx].count(KeyName(key), n)
	if s.AutoSeal {
		s.Seal(at)
	}
}

// Absorb moves windows [from, lim) of src into s: counters add, the
// budget gauge keeps its minimum, and each window's histogram merges
// into s's and returns to src's pool. src must share s's window and
// horizon and must not be sealed; each of its windows is absorbed at
// most once, before s seals it (a window s has sealed takes nothing,
// as Feed drops a straggler). Because every aggregate merges exactly,
// s ends up as if it had been fed src's records directly.
func (s *Sampler) Absorb(src *Sampler, from, lim int) {
	lim = min(lim, len(src.rows))
	if from >= lim {
		return
	}
	s.grow(lim - 1)
	for w := from; w < lim; w++ {
		sr := &src.rows[w]
		if w >= s.sealed {
			r := &s.rows[w]
			r.add(sr)
			if sr.h != nil {
				s.hist(r).Merge(sr.h)
			}
		}
		src.release(sr)
		*sr = wrow{budgetMin: ^uint64(0)}
	}
}

// Seal finalizes every window that ends at or before t, whatever it
// holds: later records for it are dropped, and percentiles are
// computed from its histogram, which returns to the pool. Records
// never arrive before the last barrier time, so sealing at barriers is
// safe for any shard layout.
func (s *Sampler) Seal(t cycles.Cycles) {
	if s == nil {
		return
	}
	lim := int(t / s.window)
	if lim <= s.sealed {
		return
	}
	for w := s.sealed; w < min(lim, len(s.rows)); w++ {
		if r := &s.rows[w]; r.h != nil {
			r.p50 = r.h.Quantile(0.50)
			r.p95 = r.h.Quantile(0.95)
			r.p99 = r.h.Quantile(0.99)
			s.release(r)
		}
	}
	s.sealed = lim
}

// AddMark appends a point annotation. Owners add marks in event order
// (their event logs are already deterministic).
func (s *Sampler) AddMark(atUS float64, kind, detail string) {
	if s == nil {
		return
	}
	s.marks = append(s.marks, Mark{AtUS: atUS, Kind: kind, Detail: detail})
}

// Finish seals everything and materializes the TimeSeries, padding
// with empty rows to the horizon so quiet tails stay visible. rec, if
// non-nil, contributes the trace ring's record/drop accounting.
func (s *Sampler) Finish(rec *Recorder) *TimeSeries {
	if s == nil {
		return nil
	}
	s.Seal(cycles.Cycles(len(s.rows)) * s.window)
	n := len(s.rows)
	if s.horizon > 0 {
		if want := int((s.horizon + s.window - 1) / s.window); want > n {
			n = want
		}
	}
	ts := &TimeSeries{
		WindowUS:     s.window.Micros(),
		Windows:      make([]WindowRow, n),
		Marks:        s.marks,
		TraceRecords: rec.Emitted(),
		TraceDropped: rec.Dropped(),
	}
	var inFlight int64
	for i := 0; i < n; i++ {
		r := wrow{budgetMin: ^uint64(0)}
		if i < len(s.rows) {
			r = s.rows[i]
		}
		inFlight += int64(r.arrived) - int64(r.served) - int64(r.erred) - int64(r.dropped)
		row := &ts.Windows[i]
		row.StartUS = (cycles.Cycles(i) * s.window).Micros()
		row.Arrived, row.Served, row.Erred, row.Dropped = r.arrived, r.served, r.erred, r.dropped
		row.Timeouts, row.Retries, row.Hedges, row.Wasted = r.timeouts, r.retries, r.hedges, r.wasted
		row.BudgetDenied = r.budgetDenied
		row.InFlight = inFlight
		row.BusyCores = float64(r.busy) / float64(s.window)
		row.P50US, row.P95US, row.P99US = r.p50.Micros(), r.p95.Micros(), r.p99.Micros()
		if r.budgetMin != ^uint64(0) {
			v := float64(r.budgetMin) / 1000
			row.RetryBudget = &v
		}
	}
	return ts
}
