package main

import (
	"fmt"
	"io"
	"sort"
)

// runEnv is what one workload run is given: the inputs' seed and
// (traced run only) the span recorder.
type runEnv struct {
	seed int64
	// spans is nil on the untraced run; traced runs record spans and
	// run the layer probes.
	spans *spanRecorder
	// tiny shrinks deployments to test size (see sizes.go).
	tiny bool
	// log receives progress lines (stderr on the command line).
	log io.Writer
}

func (e *runEnv) traced() bool { return e.spans != nil }

func (e *runEnv) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}

// result is one workload run.
type result struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Host     hostFacts `json:"host"`
	// Sizes are the fixed sizes the run used (virtual seconds, hosts,
	// reports, rates).
	Sizes map[string]float64 `json:"sizes"`
	// Attempted/Failed count the workload's operations (lookups,
	// investigations, hosts, reports).
	Attempted int `json:"ops_attempted"`
	Failed    int `json:"ops_failed"`
	// Violations are oracle checks that did not hold; any entry makes
	// the command exit non-zero after printing.
	Violations []string `json:"violations,omitempty"`
	// E2E holds the end-to-end metrics, Layer the per-layer ones.
	E2E   map[string]float64 `json:"end_to_end"`
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// AsTimed holds the timing metrics before scaling by the host factor.
	AsTimed map[string]float64 `json:"as_timed"`
	// HostFactor is how much slower than nominal the host ran the
	// reference kernel during the measured phase.
	HostFactor float64 `json:"host_factor"`
	// SliceRates summarizes the per-slice event rates of the measured
	// phase, as timed; PhaseWallSec is its length.
	SliceRates   fiveNum `json:"slice_events_per_s"`
	Slices       int     `json:"slices"`
	PhaseWallSec float64 `json:"phase_wall_s"`
	// SpanTotals is the traced run's per-span-name self-time table.
	SpanTotals []spanTotals `json:"span_totals,omitempty"`
}

func newResult(name string, env *runEnv) *result {
	return &result{
		Workload: name, Seed: env.seed, Host: readHostFacts(),
		Sizes: map[string]float64{}, E2E: map[string]float64{}, AsTimed: map[string]float64{}, Layer: map[string]float64{},
	}
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Violations) == 0 && r.Failed == 0 }

// timing records a timing metric as taken and scaled to a host factor
// of 1: a time is divided by the factor, a rate multiplied.
func (r *result) timing(name string, asTimed, factor float64) {
	r.AsTimed[name] = asTimed
	if name == "events_per_s" {
		r.E2E[name] = asTimed * factor
	} else {
		r.E2E[name] = asTimed / factor
	}
}

// phaseMetrics fills the end-to-end metrics every workload shares from
// the set-up's wall time and a finished measured phase. events_per_s is
// events over the summed wall time of the slices; the per-slice rates
// are summarized beside it so a burst of interference is visible. The
// set-up is scaled by the phase's host factor: the phase starts the
// moment the set-up ends and the host's spells outlast both (kernel
// samples taken back to back after the set-up would find their own data
// still cached and read fast).
func (r *result) phaseMetrics(setupSec float64, ps phaseStats, events uint64, work []float64, liveMB float64) {
	rates := sliceRates(work, ps.SliceSec)
	r.SliceRates = summarize(rates)
	r.Slices = len(rates)
	r.PhaseWallSec = ps.WallSec
	r.HostFactor = ps.HostFactor
	r.timing("setup_s", setupSec, ps.HostFactor)
	if ps.WallSec > 0 {
		r.timing("events_per_s", float64(events)/ps.WallSec, ps.HostFactor)
	}
	r.timing("cpu_us_per_event", perEvent(ps.CPUSec*1e6, events), ps.HostFactor)
	r.E2E["allocs_per_event"] = perEvent(float64(ps.Mallocs), events)
	r.E2E["live_heap_mb"] = liveMB
	r.Layer["bench.host_factor"] = ps.HostFactor
	r.Layer["goruntime.gc_cycles"] = float64(ps.GCCycles)
	r.Layer["goruntime.gc_pause_total_ms"] = ps.GCPauseMs
	if ps.CPUSec > 0 {
		r.Layer["goruntime.gc_cpu_share"] = ps.GCCPUs / ps.CPUSec
	}
	r.Layer["goruntime.alloc_bytes_per_event"] = perEvent(float64(ps.Bytes), events)
}

// opMetrics fills op_p50_ms from the latencies of a workload's
// operation and the host factor measured beside them, and, ungated, the
// 90th percentile.
func (r *result) opMetrics(ms []float64, factor float64) {
	r.timing("op_p50_ms", quantile(ms, 0.5), factor)
	r.Layer["bench.op_p90_ms"] = quantile(ms, 0.9) / factor
}

// print renders the run for a person: headline metrics with units, the
// slice-rate spread, failures, and (traced) the layer table.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  ops attempted=%d failed=%d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	h := r.Host
	fmt.Fprintf(w, "   host: git=%.12s nproc=%d GOMAXPROCS=%d %s kernel=%s load1=%.2f noisy_host=%v\n",
		h.GitSHA, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Load1, h.NoisyHost)
	fmt.Fprintf(w, "   sizes:")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Fprintf(w, " %s=%g", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		v, ok := r.E2E[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-20s %14.4f %-9s", m.Name, v, m.Unit)
		if t, scaled := r.AsTimed[m.Name]; scaled {
			fmt.Fprintf(w, " (as timed: %.4f)", t)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   host factor %.3f (reference kernel time over nominal; timings above are scaled to factor 1)\n", r.HostFactor)
	s := r.SliceRates
	fmt.Fprintf(w, "   measured phase %.2f s in %d slices; events/s per slice as timed: min %.0f  q1 %.0f  med %.0f  q3 %.0f  max %.0f\n",
		r.PhaseWallSec, r.Slices, s.Min, s.Q1, s.Med, s.Q3, s.Max)
	if len(r.Layer) > 0 && len(r.SpanTotals) > 0 {
		fmt.Fprintf(w, "   per-layer:\n")
		for _, m := range perLayer {
			if v, ok := r.Layer[m.Name]; ok {
				fmt.Fprintf(w, "     %-34s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
		fmt.Fprintf(w, "   spans (count, total ms, self ms):\n")
		for _, t := range r.SpanTotals {
			fmt.Fprintf(w, "     %-34s %8d %12.3f %12.3f\n", t.Name, t.Count,
				float64(t.Total)/1e6, float64(t.Self)/1e6)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
