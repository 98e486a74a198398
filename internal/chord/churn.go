package chord

import (
	"fmt"
	"math"

	"p2go/internal/engine"
	"p2go/internal/faults"
	"p2go/internal/metrics"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// ChurnConfig describes a churn experiment: a converged ring, a crash
// of several members, and their later rejoin (restart with soft-state
// loss), observed by monitoring programs. Zero values take the
// defaults of the §4-style 21-node deployment.
type ChurnConfig struct {
	// N is the ring size (default 21).
	N int
	// Seed drives everything (default 42).
	Seed int64
	// Victims are the crashed nodes; by default three members spread
	// around the address space (indices N/4, N/2, 3N/4).
	Victims []string
	// Converge is the pre-churn stabilization phase (default 300 s).
	Converge float64
	// CrashAt / RejoinAt are the fault times relative to the end of the
	// convergence phase (defaults 60 s and 120 s).
	CrashAt, RejoinAt float64
	// End is the observation horizon relative to the end of convergence
	// (default 300 s).
	End float64
	// QuietWindow is the tail of the observation window in which the
	// detectors are expected to have re-silenced (default 60 s).
	QuietWindow float64
	// LossProb adds base message loss.
	LossProb float64
	// Detectors are monitoring programs installed on every node
	// (typically monitor.RingProbeProgram and monitor.OscillationProgram);
	// the harness installs them as queries "extra1", "extra2", ...
	Detectors []*overlog.Program
	// AlarmNames are the watched predicates counted as detector alarms
	// (e.g. inconsistentPred, inconsistentSucc, oscill).
	AlarmNames []string
	// Uninstall lists query IDs to remove mid-run from every node via
	// the higher-order uninstallProgram event, scheduled UninstallAt
	// seconds after convergence (uninstall-under-fire). An event landing
	// on a crashed node is lost, like any delivery to a dead process —
	// pick an UninstallAt when the targets are up (0 = at convergence).
	Uninstall   []string
	UninstallAt float64
	// StatsPeriod, when positive, turns on stats publication on every
	// node (see RingConfig.StatsPeriod) — used by the overhead
	// measurement comparing churn runs with publication on and off.
	StatsPeriod float64
	// Tracing enables execution logging on every node; TraceStore
	// additionally writes every trace record through the durable store
	// (see RingConfig). Used by the forensics experiment, which runs
	// churn with the store on and off and investigates the crash
	// afterwards from the store alone.
	Tracing    *trace.Config
	TraceStore *tracestore.Config
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.N == 0 {
		c.N = 21
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Converge == 0 {
		c.Converge = 300
	}
	if c.CrashAt == 0 {
		c.CrashAt = 60
	}
	if c.RejoinAt == 0 {
		c.RejoinAt = 120
	}
	if c.End == 0 {
		c.End = 300
	}
	if c.QuietWindow == 0 {
		c.QuietWindow = 60
	}
	if len(c.Victims) == 0 {
		for _, i := range []int{c.N / 4, c.N / 2, 3 * c.N / 4} {
			c.Victims = append(c.Victims, fmt.Sprintf("n%d", i+1))
		}
	}
	return c
}

// ChurnResult is the repair-time/detection-latency table of one churn
// run. Latencies are in virtual seconds; -1 means "never observed".
type ChurnResult struct {
	// CrashTime / RejoinTime are the absolute virtual fault times.
	CrashTime  float64
	RejoinTime float64
	// PreAlarms counts detector alarms between convergence and the
	// crash — the healthy ring's false positives (should be 0). Alarms
	// raised while the ring was still forming are not counted.
	PreAlarms int
	// Detection is the latency from the crash to the first detector
	// alarm, and FirstAlarm names the detector that fired it.
	Detection  float64
	FirstAlarm string
	// Alarms counts all detector alarms from the crash to the end of
	// the observation window.
	Alarms int
	// SurvivorRepair is the latency from the crash until the surviving
	// members again satisfy the §3.1.1 ring invariants (the ring healed
	// around the crashed nodes).
	SurvivorRepair float64
	// RejoinRepair is the latency from the rejoin until the FULL
	// membership satisfies the ring invariants again.
	RejoinRepair float64
	// LastAlarm is the absolute time of the last detector alarm.
	LastAlarm float64
	// QuietAlarms counts alarms inside the final QuietWindow — the
	// detectors' failure to re-silence (should be 0).
	QuietAlarms int
	// Faults are the injector's counters for the run.
	Faults metrics.Faults
}

// String renders the result as the churn table.
func (r ChurnResult) String() string {
	lat := func(v float64) string {
		if v < 0 {
			return "never"
		}
		return fmt.Sprintf("%+.0fs", v)
	}
	return fmt.Sprintf(
		"  crash at t=%.0fs, rejoin at t=%.0fs\n"+
			"  pre-crash false alarms : %d\n"+
			"  detection latency      : %s (%s)\n"+
			"  survivor ring repaired : %s after crash\n"+
			"  full ring repaired     : %s after rejoin\n"+
			"  alarms (crash..end)    : %d, last at t=%.0fs, %d in final quiet window\n"+
			"  faults                 : injected=%d crashes=%d rejoins=%d",
		r.CrashTime, r.RejoinTime, r.PreAlarms,
		lat(r.Detection), r.FirstAlarm,
		lat(r.SurvivorRepair), lat(r.RejoinRepair),
		r.Alarms, r.LastAlarm, r.QuietAlarms,
		r.Faults.Injected, r.Faults.Crashes, r.Faults.Rejoins)
}

// RunChurn builds the ring, converges it, arms the crash/rejoin
// scenario as scheduler-barrier fault events, and measures detection
// and repair. The returned Ring allows further inspection (its watch
// stream holds every alarm).
func RunChurn(cfg ChurnConfig) (*Ring, ChurnResult, error) {
	cfg = cfg.withDefaults()
	r, err := NewRing(RingConfig{
		N: cfg.N, Seed: cfg.Seed, LossProb: cfg.LossProb,
		ExtraPrograms: cfg.Detectors,
		StatsPeriod:   cfg.StatsPeriod,
		Tracing:       cfg.Tracing,
		TraceStore:    cfg.TraceStore,
	})
	if err != nil {
		return nil, ChurnResult{}, err
	}
	r.Run(cfg.Converge)
	base := r.Sim.Now()

	sc := faults.Scenario{Name: "churn", Events: []faults.Event{
		{At: cfg.CrashAt, Kind: faults.Crash, Nodes: cfg.Victims},
		{At: cfg.RejoinAt, Kind: faults.Rejoin, Nodes: cfg.Victims},
	}}.Shift(base)
	inj, err := faults.Arm(r.Net, sc)
	if err != nil {
		return nil, ChurnResult{}, err
	}

	// Uninstall-under-fire: retire queries on every node mid-scenario
	// through the higher-order event, pre-scheduled so both simnet
	// drivers observe the identical sequence.
	if len(cfg.Uninstall) > 0 {
		at := cfg.UninstallAt
		for _, a := range r.Addrs {
			for _, qid := range cfg.Uninstall {
				ev := tuple.New(engine.UninstallEventName, tuple.Str(a), tuple.Str(qid))
				if err := r.Net.InjectAt(base+at, a, ev); err != nil {
					return nil, ChurnResult{}, err
				}
			}
		}
	}

	res := ChurnResult{
		CrashTime:  base + cfg.CrashAt,
		RejoinTime: base + cfg.RejoinAt,
		Detection:  -1, SurvivorRepair: -1, RejoinRepair: -1, LastAlarm: -1,
	}
	dead := make(map[string]bool, len(cfg.Victims))
	for _, v := range cfg.Victims {
		dead[v] = true
	}
	survivors := r.Alive(dead)

	// Step the clock 1 s at a time, polling the ring oracle between
	// steps (driver context).
	end := base + cfg.End
	for r.Sim.Now() < end {
		r.Run(math.Min(1, end-r.Sim.Now()))
		now := r.Sim.Now()
		if now > res.CrashTime && now <= res.RejoinTime &&
			res.SurvivorRepair < 0 && len(r.CheckRing(survivors)) == 0 {
			res.SurvivorRepair = now - res.CrashTime
		}
		if now > res.RejoinTime &&
			res.RejoinRepair < 0 && len(r.CheckRing(r.Addrs)) == 0 {
			res.RejoinRepair = now - res.RejoinTime
		}
	}

	alarm := make(map[string]bool, len(cfg.AlarmNames))
	for _, a := range cfg.AlarmNames {
		alarm[a] = true
	}
	quietStart := end - cfg.QuietWindow
	for _, w := range r.Watched {
		if !alarm[w.T.Name] || w.At < base {
			continue
		}
		if w.At < res.CrashTime {
			res.PreAlarms++
			continue
		}
		res.Alarms++
		if res.Detection < 0 {
			res.Detection = w.At - res.CrashTime
			res.FirstAlarm = w.T.Name
		}
		if w.At > res.LastAlarm {
			res.LastAlarm = w.At
		}
		if w.At >= quietStart {
			res.QuietAlarms++
		}
	}
	res.Faults = inj.Stats()
	return r, res, nil
}
