package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"p2go/internal/allocwin"
	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/simnet"
)

// The scale experiment: how far past the paper's 21 nodes the simulator
// carries one monitoring substrate. It sweeps ring sizes from 100 to
// 10,000 hosts and reports, per point, the wall-clock build and run
// times, the simulator's event throughput, and bytes-per-host — the
// steady-state figure, the full-install figure, and the
// program-instantiation figure that isolates what shared plans save.
// Two hard gates ride along: instantiation bytes-per-host under shared
// plans must beat the private-plan baseline by ScaleMinPlanReduction,
// and steady-state bytes-per-host at >= 1k hosts must stay under
// ScaleBudgetBytes. A sharing check (every host of the 100-host ring
// runs chord.Compiled()'s plans) guards that the saving is real.

const (
	// ScaleInstallBudgetBytes is the hard per-host budget for the fixed
	// install footprint (node + tables + strand shells + seed rows,
	// measured by installBytesPerHost with shared plans). Measured
	// ~13 KB at 128 and 1 000 hosts; the headroom is deliberately
	// tight — losing plan sharing alone (+~90 KB/host of private plans)
	// blows it. See also TestPerHostMemoryBudget.
	ScaleInstallBudgetBytes = 16 << 10

	// ScaleBudgetBytes is the hard per-host steady-state budget the
	// sweep enforces at >= 1k hosts after the measured window. On top
	// of the install footprint this includes workload soft state: table
	// rows and per-link delay/loss RNG streams, whose state grows with
	// the draws a link makes, up to 4.9 KB (internal/rng). Measured
	// ~88 KB at 1k hosts over a 30 s window.
	ScaleBudgetBytes = 512 << 10

	// ScaleMinPlanReduction is the minimum ratio of private-plan to
	// shared-plan program-instantiation bytes-per-host.
	ScaleMinPlanReduction = 5.0
)

// ScalePoint is one ring size in the sweep.
type ScalePoint struct {
	Hosts int
	// BuildSec/RunSec are wall-clock seconds to construct+converge the
	// ring and to run the measured window.
	BuildSec float64
	RunSec   float64
	// SimSeconds is the virtual length of the measured window.
	SimSeconds float64
	// Events is how many simulator events the window executed;
	// EventsPerSec is Events over wall-clock RunSec (the scheduler
	// throughput curve).
	Events       uint64
	EventsPerSec float64
	// SteadyBytesPerHost is the live-heap delta per host after the
	// window (ring construction through end of run).
	SteadyBytesPerHost int64
}

// ScaleResult is the full sweep.
type ScaleResult struct {
	Quick      bool
	HostCounts []int
	// SharedPlanBytesPerHost / PrivatePlanBytesPerHost isolate program
	// instantiation — the only memory plan sharing can touch: heap per
	// host of holding the Chord program privately compiled (N full plan
	// sets, the pre-refactor state) vs instantiated from one shared
	// compilation (N strand shells). PlanReduction is their ratio and
	// carries the >= ScaleMinPlanReduction gate.
	ProbeHosts              int
	SharedPlanBytesPerHost  int64
	PrivatePlanBytesPerHost int64
	PlanReduction           float64
	// SharedInstallBytesPerHost / PrivateInstallBytesPerHost are the
	// corresponding full-install heap deltas on pre-built nodes. They
	// include everything an install creates — tables, indexes, strand
	// wiring, seed rows — which is identical under both modes, so the
	// ratio here is diluted; reported for context, not gated.
	SharedInstallBytesPerHost  int64
	PrivateInstallBytesPerHost int64
	// SharedOK reports that every host of the SharedHosts-host ring
	// holds chord.Compiled()'s plan pointers.
	SharedHosts int
	SharedOK    bool
	// Gates.
	InstallBudgetBytes int64
	InstallBudgetOK    bool
	BudgetBytes        int64
	BudgetOK           bool
	ReductionOK        bool
	Points             []ScalePoint
}

// installBytesPerHost measures program instantiation alone: m bare
// nodes are built first, then Chord is installed on each, and only the
// install phase is under the heap meter. private installs the program
// with InstallQuery, so each node compiles and retains its own rule
// plans (and gets no seed rows); shared installs chord.Compiled(), one
// immutable copy, and the nodes keep per-node scratch only.
func installBytesPerHost(m int, private bool) (int64, error) {
	// Warm the process-wide one-time allocations (the cached shared
	// compilation, interned strings) so neither variant bills them.
	if _, err := chord.Compiled(); err != nil {
		return 0, err
	}
	sim := simnet.NewSim()
	net := simnet.NewNetwork(sim, simnet.Config{Seed: 1})
	nodes := make([]*engine.Node, m)
	for i := range nodes {
		n, err := net.AddNode(fmt.Sprintf("n%d", i+1))
		if err != nil {
			return 0, err
		}
		nodes[i] = n
	}
	base := int64(allocwin.LiveBytes())
	for _, n := range nodes {
		var err error
		if private {
			_, err = n.InstallQuery(chord.QueryID, chord.Program())
		} else {
			err = chord.Install(n, "n1")
		}
		if err != nil {
			return 0, err
		}
	}
	delta := int64(allocwin.LiveBytes()) - base
	runtime.KeepAlive(net)
	runtime.KeepAlive(nodes)
	return delta / int64(m), nil
}

// planBytesPerHost measures program instantiation alone. private holds
// m independently compiled copies of the Chord program (what every
// node retained before plan sharing); shared holds one compilation
// plus m sets of per-node strand shells instantiated from it.
func planBytesPerHost(m int, private bool) (int64, error) {
	prog := chord.Program()
	if private {
		cqs := make([]*engine.CompiledQuery, m)
		base := int64(allocwin.LiveBytes())
		for i := range cqs {
			cq, err := engine.CompileQuery(prog)
			if err != nil {
				return 0, err
			}
			cqs[i] = cq
		}
		delta := int64(allocwin.LiveBytes()) - base
		runtime.KeepAlive(cqs)
		return delta / int64(m), nil
	}
	cq, err := chord.Compiled()
	if err != nil {
		return 0, err
	}
	plans := cq.Plans()
	strands := make([][]*dataflow.Strand, m)
	base := int64(allocwin.LiveBytes())
	for i := range strands {
		ss := make([]*dataflow.Strand, len(plans))
		for j, p := range plans {
			ss[j] = p.Instantiate(nil)
		}
		strands[i] = ss
	}
	delta := int64(allocwin.LiveBytes()) - base
	runtime.KeepAlive(strands)
	return delta / int64(m), nil
}

// allHostsShare builds an h-host ring and reports whether every host
// runs chord.Compiled()'s plans by pointer.
func allHostsShare(seed int64, h int) (bool, error) {
	cq, err := chord.Compiled()
	if err != nil {
		return false, err
	}
	r, err := chord.NewRing(chord.RingConfig{N: h, Seed: seed})
	if err != nil {
		return false, err
	}
	want := cq.Plans()
	for _, a := range r.Addrs {
		got := r.Node(a).Plans()
		if len(got) != len(want) {
			return false, nil
		}
		for i := range got {
			if got[i] != want[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Scale runs the sweep. quick shrinks the measured windows to CI smoke
// size; the host counts stay 100/1k/10k either way — surviving 10k
// hosts is the point of the experiment.
func Scale(seed int64, quick bool) (*ScaleResult, error) {
	hosts := []int{100, 1000, 10000}
	const shareHosts = 100
	simSecs, probeM := 30.0, 512
	if quick {
		simSecs, probeM = 5.0, 128
	}
	res := &ScaleResult{
		Quick: quick, HostCounts: hosts, ProbeHosts: probeM,
		SharedHosts: shareHosts, BudgetBytes: ScaleBudgetBytes,
		InstallBudgetBytes: ScaleInstallBudgetBytes, BudgetOK: true,
	}

	// Gate 1: program-instantiation bytes-per-host, shared vs private.
	sharedPlan, err := planBytesPerHost(probeM, false)
	if err != nil {
		return nil, err
	}
	privatePlan, err := planBytesPerHost(probeM, true)
	if err != nil {
		return nil, err
	}
	res.SharedPlanBytesPerHost = sharedPlan
	res.PrivatePlanBytesPerHost = privatePlan
	if sharedPlan > 0 {
		res.PlanReduction = float64(privatePlan) / float64(sharedPlan)
	}
	res.ReductionOK = res.PlanReduction >= ScaleMinPlanReduction

	// Context: full-install bytes-per-host under both modes.
	res.SharedInstallBytesPerHost, err = installBytesPerHost(probeM, false)
	if err != nil {
		return nil, err
	}
	res.PrivateInstallBytesPerHost, err = installBytesPerHost(probeM, true)
	if err != nil {
		return nil, err
	}
	res.InstallBudgetOK = res.SharedInstallBytesPerHost <= ScaleInstallBudgetBytes

	// Gate 2: every ring host runs the shared plans.
	if res.SharedOK, err = allHostsShare(seed, shareHosts); err != nil {
		return nil, err
	}

	// The throughput/memory sweep. Steady bytes-per-host includes
	// workload soft state on top of the install footprint, so it gets
	// the roomier ScaleBudgetBytes.
	for _, h := range hosts {
		base := int64(allocwin.LiveBytes())
		start := time.Now()
		r, err := chord.NewRing(chord.RingConfig{N: h, Seed: seed})
		if err != nil {
			return nil, err
		}
		build := time.Since(start).Seconds()
		startEvents := r.Sim.Executed()
		start = time.Now()
		r.Run(simSecs)
		runSec := time.Since(start).Seconds()
		events := r.Sim.Executed() - startEvents
		perHost := (int64(allocwin.LiveBytes()) - base) / int64(h)
		runtime.KeepAlive(r)
		p := ScalePoint{
			Hosts: h, BuildSec: build, RunSec: runSec,
			SimSeconds: simSecs, Events: events,
			SteadyBytesPerHost: perHost,
		}
		if runSec > 0 {
			p.EventsPerSec = float64(events) / runSec
		}
		if h >= 1000 && perHost > ScaleBudgetBytes {
			res.BudgetOK = false
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// FormatScale renders the sweep like the other experiment tables.
func FormatScale(r *ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: Chord substrate sweep (virtual window %gs/point)\n", r.Points[0].SimSeconds)
	fmt.Fprintf(&b, "  plan bytes/host (%d-host probe): shared=%d private=%d (%.1fx reduction, gate >= %.0fx: %v)\n",
		r.ProbeHosts, r.SharedPlanBytesPerHost, r.PrivatePlanBytesPerHost,
		r.PlanReduction, ScaleMinPlanReduction, r.ReductionOK)
	fmt.Fprintf(&b, "  full-install bytes/host: shared=%d private=%d (tables/wiring are common to both; budget %d, ok: %v)\n",
		r.SharedInstallBytesPerHost, r.PrivateInstallBytesPerHost,
		r.InstallBudgetBytes, r.InstallBudgetOK)
	fmt.Fprintf(&b, "  every host runs the shared plans at %d hosts: %v\n",
		r.SharedHosts, r.SharedOK)
	fmt.Fprintf(&b, "  %-7s %10s %10s %14s %14s %16s\n",
		"hosts", "build s", "run s", "events", "events/sec", "steady B/host")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-7d %10.2f %10.2f %14d %14.0f %16d\n",
			p.Hosts, p.BuildSec, p.RunSec, p.Events, p.EventsPerSec, p.SteadyBytesPerHost)
	}
	fmt.Fprintf(&b, "  per-host budget at >=1k hosts: %d bytes, ok: %v\n", r.BudgetBytes, r.BudgetOK)
	return b.String()
}
