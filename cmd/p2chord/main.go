// Command p2chord runs a simulated Chord ring with optional on-line
// monitors (§3 of the paper) and failure injection, reporting alarms and
// a final correctness audit against the ID-order oracle.
//
// Usage:
//
//	p2chord -n 21 -run 300 [-monitors ring,passive,ordering,oscill,consistency]
//	        [-scenario faults.txt] [-buggy] [-seed 42] [-v] [-lookups 50]
//
// A scenario file (see internal/faults.Parse) lists faults at virtual
// times from the start of the run, e.g. `at 150 crash n4 n7`.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"

	"p2go"
	"p2go/internal/chord"
	"p2go/internal/faults"
)

// runLookupWorkload issues random lookups from random live nodes and
// verifies every answer, as the watch hook appends it to results, against
// the ID-order oracle.
func runLookupWorkload(ring *p2go.ChordRing, n int, members []string, results *[]p2go.Tuple) {
	rng := rand.New(rand.NewSource(99))
	type want struct {
		key   uint64
		owner string
	}
	wants := map[uint64]want{}
	got := map[uint64]string{}
	if err := ring.Node(members[0]).InstallProgram(p2go.WatchProgram("lookupResults")); err != nil {
		log.Fatal(err)
	}
	// Results land on the requester, which installs the watch below.
	for i := 0; i < n; i++ {
		key := rng.Uint64()
		reqID := uint64(1<<32) + uint64(i)
		from := members[rng.Intn(len(members))]
		if err := ring.Node(from).InstallProgram(p2go.WatchProgram("lookupResults")); err != nil {
			log.Fatal(err)
		}
		if err := ring.Lookup(from, key, reqID); err != nil {
			log.Fatal(err)
		}
		wants[reqID] = want{key: key, owner: chord.TrueOwner(key, members)}
	}
	ring.Run(30)
	for _, t := range *results {
		got[t.Field(4).AsID()] = t.Field(3).AsStr()
	}
	correct, answered := 0, 0
	for reqID, w := range wants {
		owner, ok := got[reqID]
		if !ok {
			continue
		}
		answered++
		if owner == w.owner {
			correct++
		}
	}
	fmt.Printf("\nlookup workload: %d issued, %d answered, %d correct\n",
		n, answered, correct)
}

func main() {
	var (
		n        = flag.Int("n", 21, "ring size (addresses n1..nN; n1 is the landmark)")
		runFor   = flag.Float64("run", 300, "virtual seconds to run")
		monitors = flag.String("monitors", "", "comma list: ring,passive,ordering,oscill,consistency,snapshot")
		scenario = flag.String("scenario", "", "fault scenario file, times in virtual seconds from the start (see internal/faults.Parse)")
		buggy    = flag.Bool("buggy", false, "omit the dead-neighbor guard (recycled dead neighbor bug)")
		seed     = flag.Int64("seed", 42, "random seed")
		verbose  = flag.Bool("v", false, "print every watched tuple")
		lookups  = flag.Int("lookups", 0, "random lookups to issue after convergence, verified against the ID-order oracle")
	)
	flag.Parse()

	var extras []*p2go.Program
	snapshots := false
	for _, m := range strings.Split(*monitors, ",") {
		switch strings.TrimSpace(m) {
		case "":
		case "snapshot":
			snapshots = true
		case "ring":
			extras = append(extras, p2go.MonitorRingProbes(10))
		case "passive":
			extras = append(extras, p2go.MonitorRingPassive())
		case "ordering":
			extras = append(extras, p2go.MonitorOrderingOpportunistic(),
				p2go.MonitorOrderingTraversal())
		case "oscill":
			extras = append(extras, p2go.MonitorOscillation())
		case "consistency":
			extras = append(extras, p2go.MonitorConsistency(20))
		default:
			log.Fatalf("unknown monitor %q", m)
		}
	}

	alarms := map[string]int{}
	var results []p2go.Tuple
	ring, err := p2go.NewChordRing(p2go.ChordRingConfig{
		N: *n, Seed: *seed, Buggy: *buggy, ExtraPrograms: extras,
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			alarms[t.Name]++
			if t.Name == "lookupResults" {
				results = append(results, t.Clone())
			}
			if *verbose {
				fmt.Printf("[%9.2f] %-6s %v\n", now, node, t)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if snapshots {
		for i, a := range ring.Addrs {
			freq := 0.0
			if i == len(ring.Addrs)-1 {
				freq = 30 // the measured node initiates every 30 s
			}
			if err := p2go.InstallSnapshot(ring.Node(a), freq); err != nil {
				log.Fatal(err)
			}
		}
	}

	var sc faults.Scenario
	if *scenario != "" {
		text, err := os.ReadFile(*scenario)
		if err != nil {
			log.Fatal(err)
		}
		if sc, err = faults.Parse(string(text)); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := ring.RunFaults(sc, *runFor, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range rep.Repairs {
		repaired := "never broken"
		switch {
		case p.Latency >= 0:
			repaired = fmt.Sprintf("broken %+.0fs, repaired %+.0fs after", p.Broken, p.Latency)
		case p.Broken >= 0:
			repaired = fmt.Sprintf("broken %+.0fs after, never repaired", p.Broken)
		}
		fmt.Printf("t=%.1f %s: ring of %d %s\n", p.At, p.What, len(p.Members), repaired)
	}

	if *lookups > 0 {
		runLookupWorkload(ring, *lookups, rep.Members, &results)
	}

	members := rep.Members
	bad := ring.CheckRing(members)
	fmt.Printf("\n=== audit at t=%.1f (%d members) ===\n", ring.Sim.Now(), len(members))
	if len(bad) == 0 {
		fmt.Println("ring invariant holds: every bestSucc/pred matches the oracle")
	} else {
		for _, b := range bad {
			fmt.Println("VIOLATION:", b)
		}
	}
	if len(ring.Errors) > 0 {
		fmt.Printf("%d rule errors (first: %s)\n", len(ring.Errors), ring.Errors[0])
	}
	if len(alarms) > 0 {
		fmt.Println("\nwatched-tuple counts:")
		names := make([]string, 0, len(alarms))
		for name := range alarms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-20s %d\n", name, alarms[name])
		}
	}
	if snapshots {
		id, phase := p2go.SnapState(ring.Node(fmt.Sprintf("n%d", *n)))
		fmt.Printf("\nsnapshots: initiator at snapshot %d (%s)\n", id, phase)
	}
	m := ring.Node(fmt.Sprintf("n%d", *n)).Metrics()
	fmt.Printf("\nmeasured node n%d: cpu=%.3f%% msgs=%d/%d rules=%d live=%d tuples\n",
		*n, 100*m.BusySeconds/ring.Sim.Now(), m.MsgsSent, m.MsgsRecv,
		m.RuleFires, ring.Node(fmt.Sprintf("n%d", *n)).Store().LiveTuples())
}
