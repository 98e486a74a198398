package realtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// sharedPlanProgram keeps every node sending, receiving, joining and
// aggregating at once: each node pings its ring successor on a timer, a
// ping is stored and forwarded until it has been all the way round, and
// a count is maintained over what was heard.
const sharedPlanProgram = `
materialize(peer, infinity, 1, keys(2)).
materialize(heard, 10, 1000, keys(2,3)).
materialize(heardCount, infinity, 1, keys(1)).
s1 ping@Peer(NAddr, E, "hop") :- periodic@NAddr(E, 0.002), peer@NAddr(Peer).
s2 heard@NAddr(Src, E) :- ping@NAddr(Src, E, Label).
s3 ping@Peer(Src, E, Label) :- ping@NAddr(Src, E, Label), peer@NAddr(Peer), Src != Peer.
s4 heardCount@NAddr(count<*>) :- heard@NAddr(Src, E).
`

// planSignature renders the content of a node's plans, aggregate
// analyses included, so that any write to a shared plan shows.
func planSignature(n *engine.Node) string {
	var b strings.Builder
	for _, p := range n.Plans() {
		fmt.Fprintf(&b, "%+v", *p)
		if p.Agg != nil {
			fmt.Fprintf(&b, " agg=%+v", *p.Agg)
		}
		if p.AggPlan != nil {
			fmt.Fprintf(&b, " aggplan=%+v", *p.AggPlan)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSharedPlansConcurrentNodes runs one compiled query on several
// nodes at once, a goroutine each, which is what p2node -realtime does
// in production: the nodes read one set of *dataflow.Plan, intern
// strings in one codec table and take arenas and aggregate state from
// process-wide pools. Under -race (make check, CI) any write to that
// shared state is a reported race; the assertions are that the plans
// really are shared and come out unchanged.
func TestSharedPlansConcurrentNodes(t *testing.T) {
	var mu sync.Mutex
	var ruleErrs []string
	net := NewNetwork(Config{
		Seed: 9,
		OnRuleError: func(_ float64, node, ruleID string, err error) {
			mu.Lock()
			defer mu.Unlock()
			ruleErrs = append(ruleErrs, fmt.Sprintf("%s/%s: %v", node, ruleID, err))
		},
	})
	cq, err := engine.CompileQuery(overlog.MustParse(sharedPlanProgram))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	for _, a := range addrs {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.InstallCompiledQuery("ring", cq); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		net.Node(a).SeedLocal(tuple.New("peer", tuple.Str(a), tuple.Str(addrs[(i+1)%len(addrs)])))
	}
	ref := net.Node(addrs[0]).Plans()
	if len(ref) == 0 {
		t.Fatal("no plans installed")
	}
	for _, a := range addrs[1:] {
		ps := net.Node(a).Plans()
		if len(ps) != len(ref) {
			t.Fatalf("%s has %d plans, %s has %d", a, len(ps), addrs[0], len(ref))
		}
		for i := range ps {
			if ps[i] != ref[i] {
				t.Fatalf("%s plan %d (%s) is a private copy; want the shared instance", a, i, ps[i].RuleID)
			}
		}
	}
	before := planSignature(net.Node(addrs[0]))

	net.Start()
	time.Sleep(300 * time.Millisecond)
	net.Stop() // waits for every node goroutine: the reads below are safe

	if after := planSignature(net.Node(addrs[0])); after != before {
		t.Errorf("shared plan contents changed while the nodes ran:\nbefore: %s\nafter:  %s", before, after)
	}
	if len(ruleErrs) > 0 {
		t.Errorf("%d rule errors, first: %s", len(ruleErrs), ruleErrs[0])
	}
	for _, a := range addrs {
		n := net.Node(a)
		if m := n.Metrics(); m.MsgsRecv == 0 || m.MsgsSent == 0 || m.TimerFires == 0 {
			t.Errorf("%s exchanged nothing: %+v", a, m)
		}
		rows := 0
		n.Store().Get("heardCount").Scan(1e12, func(tuple.Tuple) { rows++ })
		if rows != 1 {
			t.Errorf("%s: %d heardCount rows, want 1", a, rows)
		}
	}
}
