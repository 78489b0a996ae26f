package xc

import (
	"fmt"
	"io"

	"xcontainers/internal/obs"
)

// TimeSeries is the deterministic windowed metrics series a traced run
// produces: per-window served/erred/timeout/retry/hedge counts,
// queue-depth and busy-core gauges, latency percentiles, and
// autoscale/migration/failure marks, all in virtual time. Reports embed
// it under "time_series" when observability was armed; WriteCSV renders
// it for spreadsheets.
type TimeSeries = obs.TimeSeries

// ObserveSpec arms the observability layer on a run: a flight-recorder
// trace ring (export with WriteTrace, view at ui.perfetto.dev) plus a
// windowed metrics TimeSeries in the report. Build one with Observe and
// attach it to a TrafficSpec, ClusterSpec, ServiceGraphSpec, or
// Workload:
//
//	o := xc.Observe().WindowMicros(500)
//	rep, err := platform.Serve(xc.App("memcached"),
//		xc.Traffic().Rate(50_000).Duration(1).Observe(o))
//	rep.WriteTrace(traceFile)
//
// Observation never perturbs the model: a traced run and an untraced
// run produce the same report numbers, and runs without a spec stay on
// the zero-cost path.
type ObserveSpec struct {
	opts obs.Options
}

// Observe starts an observability spec with the defaults: 1000 µs
// windows, a 65536-record trace ring, queue-depth tracing off.
func Observe() *ObserveSpec { return &ObserveSpec{} }

// WindowMicros sets the time-series window width in virtual
// microseconds (0 = 1000).
func (o *ObserveSpec) WindowMicros(us float64) *ObserveSpec {
	o.opts.WindowUS = us
	return o
}

// Ring bounds the trace ring in records (0 = 65536). Overflow
// overwrites the oldest records, with drop accounting in the report.
func (o *ObserveSpec) Ring(records int) *ObserveSpec {
	o.opts.RingCap = records
	return o
}

// QueueDepth adds one trace record per queue admission and completion —
// per-replica depth tracks in Perfetto. Verbose: it multiplies the
// record volume, so it is off unless asked for.
func (o *ObserveSpec) QueueDepth() *ObserveSpec {
	o.opts.QueueDepth = true
	return o
}

// options copies the spec into the internal form; nil specs stay nil,
// and the copy keeps one spec reusable across runs.
func (o *ObserveSpec) options() *obs.Options {
	if o == nil {
		return nil
	}
	c := o.opts
	return &c
}

// obsRecorder lets report types hold their trace ring without pulling
// the obs import into every report file.
type obsRecorder = obs.Recorder

// writeTrace renders a traced run's ring as Chrome trace-event JSON,
// shared by every report type's WriteTrace method.
func writeTrace(rec *obs.Recorder, w io.Writer) error {
	if rec == nil {
		return fmt.Errorf("xc: no trace recorded: attach xc.Observe() to the run")
	}
	return rec.WriteTrace(w)
}

// WriteTrace renders the run's flight-recorder trace as Chrome
// trace-event JSON — load it at ui.perfetto.dev or chrome://tracing.
// It errors unless the run was observed.
func (r *Report) WriteTrace(w io.Writer) error { return writeTrace(r.trace, w) }

// WriteTrace renders the run's flight-recorder trace as Chrome
// trace-event JSON — load it at ui.perfetto.dev or chrome://tracing.
// It errors unless the run was observed.
func (r *ClusterReport) WriteTrace(w io.Writer) error { return writeTrace(r.trace, w) }

// WriteTrace renders the run's flight-recorder trace as Chrome
// trace-event JSON — load it at ui.perfetto.dev or chrome://tracing.
// It errors unless the run was observed.
func (r *GraphReport) WriteTrace(w io.Writer) error { return writeTrace(r.trace, w) }
