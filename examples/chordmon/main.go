// Chordmon: a Chord ring with the paper's §3.1 monitoring add-ons
// deployed on-line — active ring probes (rp1-rp3), the passive check
// (rp4), the wrap-around ordering traversal (ri2-ri7), the oscillation
// detectors (os1-os9), and the proactive consistency probe (cs1-cs12).
//
// The scenario: a 12-node ring converges and is verified healthy; then
// the fault scenario `at 0 crash n4 n7` plays through Ring.RunFaults,
// and the detectors report what they see while the ring heals itself.
//
// Run with: go run ./examples/chordmon
package main

import (
	"fmt"
	"log"
	"sort"

	"p2go"
	"p2go/internal/faults"
)

func main() {
	alarms := map[string]int{}
	ring, err := p2go.NewChordRing(p2go.ChordRingConfig{
		N:    12,
		Seed: 2006,
		ExtraPrograms: []*p2go.Program{
			p2go.MonitorRingProbes(10),
			p2go.MonitorRingPassive(),
			p2go.MonitorOrderingTraversal(),
			p2go.MonitorOscillation(),
		},
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			switch t.Name {
			case "inconsistentPred", "inconsistentSucc", "orderingProblem",
				"oscill", "repeatOscill", "chaotic", "consAlarm":
				alarms[t.Name]++
				fmt.Printf("[%7.2fs] %-8s ALARM %v\n", now, node, t)
			case "orderingOK":
				fmt.Printf("[%7.2fs] %-8s ring traversal OK (1 wrap-around)\n", now, node)
			case "consistency":
				fmt.Printf("[%7.2fs] %-8s consistency metric = %v\n",
					now, node, t.Field(2))
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== phase 1: convergence (300 virtual seconds) ===")
	ring.Run(300)
	if bad := ring.CheckRing(ring.Addrs); len(bad) > 0 {
		log.Fatalf("ring failed to converge: %v", bad)
	}
	fmt.Println("ring converged: every bestSucc/pred matches the ID-order oracle")

	// Deploy the consistency probe on one node, on-line (no restart).
	if err := ring.Node("n12").InstallProgram(p2go.MonitorConsistency(20)); err != nil {
		log.Fatal(err)
	}

	// Start a full-ring ordering traversal from n1.
	inject(ring, "n1", p2go.NewTuple("orderingEvent", p2go.Str("n1"), p2go.ID(1)))
	ring.Run(60)

	fmt.Println("\n=== phase 2: crash n4 and n7 ===")
	rep, err := ring.RunFaults(faults.MustParse("at 0 crash n4 n7"), 120, nil)
	if err != nil {
		log.Fatal(err)
	}
	if bad := rep.Violations; len(bad) > 0 {
		fmt.Printf("ring still healing: %v\n", bad)
	} else {
		fmt.Println("ring healed around the failed nodes")
	}
	// Another traversal on the healed ring.
	inject(ring, "n1", p2go.NewTuple("orderingEvent", p2go.Str("n1"), p2go.ID(2)))
	ring.Run(30)

	fmt.Println("\n=== summary ===")
	if len(alarms) == 0 {
		fmt.Println("no alarms (healthy run)")
	}
	names := make([]string, 0, len(alarms))
	for name := range alarms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-18s %d\n", name, alarms[name])
	}
}

func inject(r *p2go.ChordRing, addr string, t p2go.Tuple) {
	if err := r.Net.Inject(addr, t); err != nil {
		log.Fatal(err)
	}
}
