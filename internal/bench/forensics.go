package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// AncestorPoint is one time-horizon point of the forensic query-latency
// sweep: an unbounded ancestor walk over a view whose since-horizon
// spans `Windows` store windows.
type AncestorPoint struct {
	// Windows is the horizon in store windows (the unit of segment
	// decode cost — a view never touches windows older than its since).
	Windows int
	// Since is the absolute virtual-time horizon handed to the view.
	Since float64
	// Edges/Hops size the lineage answer.
	Edges int
	Hops  int
	// Wall is the measured wall-clock cost of opening the view and
	// running the walk (real time — queries run offline, not in the
	// simulation).
	Wall time.Duration
}

// ForensicsResult is the output of the forensics experiment: the write
// side's overhead and compactness, the read side's query latency, and
// the determinism/accounting contract checks.
type ForensicsResult struct {
	// Nodes is the ring size; WindowSeconds the store's rotation period.
	Nodes         int
	WindowSeconds float64
	// BaseBusy / StoreBusy are total BusySeconds over every node for the
	// traced churn run without and with the store attached;
	// OverheadPercent the relative increase (the store's write tax).
	BaseBusy        float64
	StoreBusy       float64
	OverheadPercent float64
	// Appended counts records written through all stores; BytesPerRecord
	// is the lifetime encoded-size ratio over all sealed segments.
	Appended       int64
	SealedSegments int64
	BytesPerRecord float64
	// RestartMarks counts "restart" events recorded by the crash
	// victims' stores — the durable trace of the churn the live tables
	// have already forgotten.
	Victims      int
	RestartMarks int
	// RootNode/RootID identify the investigated tuple (the newest traced
	// product on the measured node); Points is the latency sweep.
	RootNode string
	RootID   uint64
	Points   []AncestorPoint
	// InvestigateLines counts the rendered lines of the textual
	// investigation surface for the same question ("ancestors of ID at
	// node"), exercising parse → run → render end to end.
	InvestigateLines int
	// FingerprintOK reports the determinism check: a traced ring run
	// with the store off and on produced byte-identical emissions
	// fingerprints — the store's CPU bill is visible in the metrics but
	// never perturbs virtual time, tuple IDs, table contents, or the
	// watch stream.
	FingerprintOK bool
	// AccountingErr records a violated per-query accounting invariant on
	// the measured node of the store-on run ("" = bills still sum).
	AccountingErr string
}

// emissionsFP fingerprints what a ring emitted — every table row with
// its tuple ID, the histograms, the watch stream, the error log — but
// not the CPU metrics. Attaching a trace store bills real append CPU
// (BusySeconds moves, by design), so the determinism contract for the
// store is exactly "emissions identical, bill visible". The
// nodeStats/queryStats tables are the same metrics reflected into
// tables (this scan would fill them), so they are excluded for the same
// reason: instrumentation features may legitimately move the bill
// without perturbing what the rings computed.
func emissionsFP(r *chord.Ring) string {
	var b strings.Builder
	now := r.Sim.Now()
	for _, a := range r.Addrs {
		n := r.Node(a)
		h := n.Hists()
		fmt.Fprintf(&b, "== %s hists=%s|%s|%s|%s\n", a,
			h.HopLatency.Encode(), h.StrandCost.Encode(),
			h.QueueWait.Encode(), h.QueueDepth.Encode())
		for _, name := range n.Store().Names() {
			if name == engine.NodeStatsTableName || name == engine.QueryStatsTableName {
				continue
			}
			tb := n.Store().Get(name)
			var rows []string
			tb.Scan(now, func(t tuple.Tuple) {
				rows = append(rows, fmt.Sprintf("  id=%d %s", t.ID, t.String()))
			})
			sort.Strings(rows)
			fmt.Fprintf(&b, "table %s n=%d\n", name, len(rows))
			for _, row := range rows {
				b.WriteString(row)
				b.WriteByte('\n')
			}
		}
	}
	for _, w := range r.Watched {
		fmt.Fprintf(&b, "watch t=%.9f %s %s\n", w.At, w.Node, w.T.String())
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "err %s\n", e)
	}
	return b.String()
}

// Forensics measures the trace store end to end. It repeats the traced
// churn experiment with the store detached and attached and reports the
// BusySeconds delta (write overhead), the encoded bytes/record
// (compactness), and the restart markers the victims' stores kept. It
// then plays investigator on the store-on run: an unbounded ancestor
// walk of the newest traced tuple on the measured node at 1-, 10- and
// 100-window horizons (wall-clock timed — forensic reads are offline),
// plus the same question through the textual query surface. Finally it
// re-runs a small traced ring with the store off and on and demands
// byte-identical emissions fingerprints, and checks per-query accounting
// still sums on the store-on churn run.
func Forensics(seed int64, quick bool) (*ForensicsResult, error) {
	n, converge, end := Nodes, float64(ConvergeTime), 480.0
	window := 5.0
	tcfg := trace.DefaultConfig()
	if quick {
		n, converge, end = 8, 60, 160
		window = 2
		tcfg = trace.Config{RuleExecTTL: 30, RuleExecMax: 80, TupleLogMax: 100}
	}
	measured := fmt.Sprintf("n%d", n)
	churn := chord.ChurnScenario(n)
	victims := churn.Events[0].Nodes
	scfg := tracestore.DefaultConfig()
	scfg.WindowSeconds = window

	res := &ForensicsResult{Nodes: n, WindowSeconds: window, Victims: len(victims)}

	run := func(sc *tracestore.Config) (*chord.Ring, float64, error) {
		r, _, err := runFaults(chord.RingConfig{
			N: n, Seed: seed, ExtraPrograms: churnDetectors(),
			Tracing: &tcfg, TraceStore: sc,
		}, converge, churn, end)
		if err != nil {
			return nil, 0, err
		}
		var busy float64
		for _, a := range r.Addrs {
			busy += r.Node(a).Metrics().BusySeconds
		}
		return r, busy, nil
	}

	_, base, err := run(nil)
	if err != nil {
		return nil, err
	}
	res.BaseBusy = base
	r, storeBusy, err := run(&scfg)
	if err != nil {
		return nil, err
	}
	res.StoreBusy = storeBusy
	if res.BaseBusy > 0 {
		res.OverheadPercent = 100 * (res.StoreBusy - res.BaseBusy) / res.BaseBusy
	}

	stores := make(map[string]*tracestore.Store, len(r.Addrs))
	var sealedRecords, encodedBytes int64
	for _, a := range r.Addrs {
		st := r.Node(a).TraceStore()
		if st == nil {
			return nil, fmt.Errorf("bench: node %s has no trace store", a)
		}
		stores[a] = st
		s := st.Stats()
		res.Appended += s.Appended()
		res.SealedSegments += s.Sealed
		sealedRecords += s.SealedRecords
		encodedBytes += s.TotalEncodedBytes
	}
	if sealedRecords > 0 {
		res.BytesPerRecord = float64(encodedBytes) / float64(sealedRecords)
	}

	// The victims rejoined: their stores must carry the restart marker
	// their own soft-state tables cannot (Reset wiped those).
	full := tracestore.NewView(stores, 0)
	for _, v := range victims {
		evs, err := full.Events(tracestore.EventFilter{Node: v, Op: "restart"})
		if err != nil {
			return nil, err
		}
		res.RestartMarks += len(evs)
	}

	// Root of the investigation: the newest traced product on the
	// measured node (deterministic — append order is virtual time).
	execs, err := full.Execs(tracestore.ExecFilter{Node: measured})
	if err != nil {
		return nil, err
	}
	if len(execs) == 0 {
		return nil, fmt.Errorf("bench: store recorded no execs on %s", measured)
	}
	res.RootNode = measured
	res.RootID = execs[len(execs)-1].OutID

	now := r.Sim.Now()
	for _, d := range []int{1, 10, 100} {
		since := now - float64(d)*window
		if since < 0 {
			since = 0
		}
		start := time.Now()
		v := tracestore.NewView(stores, since)
		l, err := v.Ancestors(res.RootNode, res.RootID, 0)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AncestorPoint{
			Windows: d, Since: since,
			Edges: len(l.Edges), Hops: len(l.Hops),
			Wall: time.Since(start),
		})
	}

	// Same question through the textual surface (parse → run → render).
	q := fmt.Sprintf("ancestors of %d at %s", res.RootID, res.RootNode)
	ir, err := tracestore.Investigate(q, full)
	if err != nil {
		return nil, err
	}
	res.InvestigateLines = len(strings.Split(strings.TrimRight(ir.String(), "\n"), "\n"))

	if err := CheckQueryAccounting(r.Node(measured)); err != nil {
		res.AccountingErr = err.Error()
	}

	// Determinism: store off|on on a small traced ring with cross-node
	// lookups.
	fpN, fpRun := 5, 45.0
	var fps [2]string
	for i, sc := range []*tracestore.Config{nil, &scfg} {
		fr, err := chord.NewRing(chord.RingConfig{
			N: fpN, Seed: seed, Tracing: &tcfg, TraceStore: sc,
		})
		if err != nil {
			return nil, err
		}
		fr.Run(fpRun)
		for k := uint64(0); k < 4; k++ {
			if err := fr.Lookup(fmt.Sprintf("n%d", fpN), k*0x4000_0000_0000_0000+k, k); err != nil {
				return nil, err
			}
		}
		fr.Run(15)
		fps[i] = emissionsFP(fr)
	}
	res.FingerprintOK = fps[0] == fps[1]
	if len(r.Errors) > 0 {
		return nil, fmt.Errorf("bench: forensics run raised rule errors: %s", r.Errors[0])
	}
	return res, nil
}

// FormatForensics renders the forensics summary.
func FormatForensics(res *ForensicsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Forensics: durable trace store over the %d-node traced churn run (window %gs)\n",
		res.Nodes, res.WindowSeconds)
	fmt.Fprintf(&b, "  BusySeconds store off : %10.4f\n", res.BaseBusy)
	fmt.Fprintf(&b, "  BusySeconds store on  : %10.4f  (%+.2f%%)\n", res.StoreBusy, res.OverheadPercent)
	fmt.Fprintf(&b, "  records appended      : %d across all stores, %d sealed segments, %.1f bytes/record\n",
		res.Appended, res.SealedSegments, res.BytesPerRecord)
	fmt.Fprintf(&b, "  restart markers       : %d recorded for %d crash victims\n",
		res.RestartMarks, res.Victims)
	fmt.Fprintf(&b, "  investigation root    : tuple %d at %s\n", res.RootID, res.RootNode)
	for _, p := range res.Points {
		fmt.Fprintf(&b, "    ancestors @ %3d windows: %4d edges, %3d hops in %s\n",
			p.Windows, p.Edges, p.Hops, p.Wall.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  query surface         : %q -> %d lines\n",
		fmt.Sprintf("ancestors of %d at %s", res.RootID, res.RootNode), res.InvestigateLines)
	fmt.Fprintf(&b, "  store off|on          : emissions identical=%v\n", res.FingerprintOK)
	fmt.Fprintf(&b, "  accounting            : %s\n", formatAccounting(res.AccountingErr))
	return b.String()
}
