package chord

import (
	"fmt"
	"math"

	"p2go/internal/faults"
	"p2go/internal/metrics"
)

// QuietWindow is the tail of a fault run in which the detectors are
// expected to have re-silenced (FaultReport.QuietAlarms), in seconds.
const QuietWindow = 60

// ChurnScenario is the §3.1 churn case as data: three members spread
// around the join order (n{N/4+1}, n{N/2+1} and n{3N/4+1}) crash at
// +60 s and rejoin, soft state lost, at +120 s.
func ChurnScenario(n int) faults.Scenario {
	var victims []string
	for _, i := range []int{n / 4, n / 2, 3 * n / 4} {
		victims = append(victims, fmt.Sprintf("n%d", i+1))
	}
	return faults.Scenario{Name: "churn", Events: []faults.Event{
		{At: 60, Kind: faults.Crash, Nodes: victims},
		{At: 120, Kind: faults.Rejoin, Nodes: victims},
	}}
}

// Repair is one applied fault and the ring's repair after it.
type Repair struct {
	faults.Applied
	// Members are the ring members the applied log leaves alive after
	// this event.
	Members []string
	// Broken is the time from the event to the first poll at which
	// CheckRing fails over Members, and Latency the time from the event
	// to the first clean poll after that. The ring is polled each second
	// until the next event; Broken is -1 when it did not break by then,
	// and Latency -1 when it did not break or was not repaired.
	Broken, Latency float64
}

// FaultReport is what RunFaults measured. Times are absolute virtual
// seconds; latencies are relative, and -1 means "never observed".
type FaultReport struct {
	// Start is the virtual time the scenario was armed at (its time 0)
	// and End the horizon.
	Start, End float64
	// Repairs holds one entry per applied event, in virtual-time order.
	Repairs []Repair
	// Faults are the injector's counters.
	Faults metrics.Faults
	// PreAlarms counts alarms from Start to the first fault: the
	// healthy ring's false positives.
	PreAlarms int
	// Detection is the latency from the first fault to the first
	// alarm, and FirstAlarm names the predicate that raised it.
	Detection  float64
	FirstAlarm string
	// Alarms counts the alarms from the first fault to End, LastAlarm
	// is the time of the last, and QuietAlarms counts those in the
	// final QuietWindow.
	Alarms      int
	LastAlarm   float64
	QuietAlarms int
	// Members are the ring members the applied log leaves alive at End,
	// and Violations the §3.1.1 invariants they break there.
	Members    []string
	Violations []string
}

// RunFaults arms sc on a ring the caller has built and converged, with
// its times taken from the ring's now, and steps virtual time one
// second at a time for horizon seconds, polling the ring oracle after
// each step for the latest fault's repair. It then scores the watched
// tuples named in alarms (read from Ring.Watched, so the ring has no
// OnWatch) and audits the ring over the members left alive.
func (r *Ring) RunFaults(sc faults.Scenario, horizon float64, alarms ...string) (FaultReport, error) {
	start := r.Sim.Now()
	inj, err := faults.Arm(r.Net, sc.Shift(start))
	if err != nil {
		return FaultReport{}, err
	}
	rep := FaultReport{Start: start, End: start + horizon, Detection: -1, LastAlarm: -1}
	dead := map[string]bool{}
	for r.Sim.Now() < rep.End {
		r.Run(math.Min(1, rep.End-r.Sim.Now()))
		now := r.Sim.Now()
		for _, e := range inj.Log()[len(rep.Repairs):] {
			for _, a := range e.Nodes {
				switch e.Kind {
				case faults.Crash:
					dead[a] = true
				case faults.Restart, faults.Rejoin:
					delete(dead, a)
				}
			}
			rep.Repairs = append(rep.Repairs, Repair{Applied: e, Members: r.Alive(dead), Broken: -1, Latency: -1})
		}
		for i := range rep.Repairs {
			p := &rep.Repairs[i]
			if p.Latency >= 0 || now <= p.At || i+1 < len(rep.Repairs) && now > rep.Repairs[i+1].At {
				continue
			}
			switch clean := len(r.CheckRing(p.Members)) == 0; {
			case p.Broken < 0 && !clean:
				p.Broken = now - p.At
			case p.Broken >= 0 && clean:
				p.Latency = now - p.At
			}
		}
	}

	firstFault := math.Inf(1)
	if len(rep.Repairs) > 0 {
		firstFault = rep.Repairs[0].At
	}
	alarm := make(map[string]bool, len(alarms))
	for _, a := range alarms {
		alarm[a] = true
	}
	for _, w := range r.Watched {
		if !alarm[w.T.Name] || w.At < start {
			continue
		}
		if w.At < firstFault {
			rep.PreAlarms++
			continue
		}
		rep.Alarms++
		if rep.Detection < 0 {
			rep.Detection = w.At - firstFault
			rep.FirstAlarm = w.T.Name
		}
		rep.LastAlarm = max(rep.LastAlarm, w.At)
		if w.At >= rep.End-QuietWindow {
			rep.QuietAlarms++
		}
	}
	rep.Faults = inj.Stats()
	rep.Members = r.Alive(dead)
	rep.Violations = r.CheckRing(rep.Members)
	return rep, nil
}
