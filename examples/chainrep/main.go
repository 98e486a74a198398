// Chainrep: the §3.4 generality demonstration — the same declarative
// monitoring techniques used on Chord's ring applied to a different
// distributed algorithm, chain replication.
//
// A five-replica chain accepts writes at the head and serves reads at
// the tail. Two OverLog monitors run on-line: a chain-length traversal
// (the analog of the paper's ring traversal ri2-ri6) and a per-hop
// replica-divergence audit. The scenario corrupts one replica and lets
// the audit find it.
//
// Run with: go run ./examples/chainrep
package main

import (
	"fmt"
	"log"

	"p2go"
	"p2go/internal/chainrep"
)

func main() {
	sim := p2go.NewSim()
	var events []p2go.Tuple
	net := p2go.NewNetwork(sim, p2go.NetworkConfig{
		Seed: 7,
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			events = append(events, t.Clone())
			switch t.Name {
			case "chainLen":
				fmt.Printf("[%6.2fs] traversal: chain length %v\n", now, t.Field(2))
			case "divergence":
				fmt.Printf("[%6.2fs] AUDIT ALARM: key %v head=%v replica %v has %v\n",
					now, t.Field(2), t.Field(3), t.Field(5), t.Field(4))
			case "auditDone":
				fmt.Printf("[%6.2fs] audit reached the tail (%v hops)\n", now, t.Field(3))
			}
		},
	})

	replicas := []string{"c1", "c2", "c3", "c4", "c5"}
	for i, addr := range replicas {
		n, err := net.AddNode(addr)
		if err != nil {
			log.Fatal(err)
		}
		next := "-"
		if i+1 < len(replicas) {
			next = replicas[i+1]
		}
		if err := chainrep.Install(n, next); err != nil {
			log.Fatal(err)
		}
	}

	head, tail := replicas[0], replicas[len(replicas)-1]
	// Observe client-facing responses at the tail.
	if err := net.Node(tail).InstallProgram(p2go.WatchProgram("getResult", "putAck")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("writing 3 keys through the head...")
	for i, kv := range [][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}} {
		err := net.Inject(head, chainrep.Put(head, kv[0], kv[1], uint64(i), head))
		if err != nil {
			log.Fatal(err)
		}
	}
	net.RunFor(3)

	fmt.Println("auditing chain structure and replica agreement...")
	net.Inject(head, chainrep.LenEvent(head, 1))           //nolint:errcheck
	net.Inject(head, chainrep.AuditEvent(head, "beta", 2)) //nolint:errcheck
	net.RunFor(3)

	fmt.Println("\ncorrupting replica c3's copy of beta...")
	net.Node("c3").HandleLocal(p2go.NewTuple("store",
		p2go.Str("c3"), p2go.Str("beta"), p2go.Str("0xDEAD")))
	net.Inject(head, chainrep.AuditEvent(head, "beta", 3)) //nolint:errcheck
	net.RunFor(3)

	fmt.Println("\nreads are served at the tail:")
	net.Inject(tail, chainrep.Get(tail, "gamma", 9, tail)) //nolint:errcheck
	net.RunFor(2)
	for _, t := range events {
		if t.Name == "getResult" {
			fmt.Printf("  get %v -> %v\n", t.Field(1), t.Field(2))
		}
	}
}
