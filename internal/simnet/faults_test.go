package simnet

import (
	"sort"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/metrics"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestDroppedMessagesBillSendCPU: the sender pays for a message before
// the network decides its fate, so its CPU time and traffic counters
// are identical whether the message is delivered, eaten by loss, or
// eaten by a partition. (Regression test for the drop-path audit: the
// loss check used to short-circuit the delay draw, making lossy and
// lossless runs diverge on the sender side.)
func TestDroppedMessagesBillSendCPU(t *testing.T) {
	run := func(loss float64, partitioned bool) (metrics.Node, string) {
		net, seen := buildPair(t, Config{Seed: 77, LossProb: loss})
		if partitioned {
			net.Partition("a", "b")
		}
		for i := int64(0); i < 40; i++ {
			send(t, net, "a", "b", i)
		}
		// A dropped send takes no record (and so copies no bytes): part
		// way through the sends, before any arrival, records are in flight
		// only if messages will be delivered.
		net.Run(0.004)
		inFlight := 0
		for _, e := range net.sim.pq {
			if _, ok := e.do.(*message); ok {
				inFlight++
			}
		}
		if dropping := loss > 0 || partitioned; (inFlight == 0) != dropping {
			t.Errorf("loss=%v partitioned=%v: %d message records in flight", loss, partitioned, inFlight)
		}
		net.Run(10)
		got := ""
		for _, v := range seen("b") {
			got += string(rune('0' + v%10))
		}
		return net.Node("a").Metrics(), got
	}
	delivered, seenAll := run(0, false)
	lost, seenNone := run(1, false)
	cut, seenCut := run(0, true)
	if len(seenAll) != 40 || seenNone != "" || seenCut != "" {
		t.Fatalf("delivery sanity: %d delivered, %q lost, %q partitioned",
			len(seenAll), seenNone, seenCut)
	}
	if delivered.MsgsSent != 40 || delivered.BusySeconds < 40*dataflow.CostMarshal {
		t.Errorf("sender billed %+v for 40 sends, want CostMarshal each", delivered)
	}
	for _, m := range []metrics.Node{lost, cut} {
		if m.BusySeconds != delivered.BusySeconds ||
			m.MsgsSent != delivered.MsgsSent ||
			m.BytesSent != delivered.BytesSent {
			t.Errorf("sender billing diverged: delivered=%+v dropped=%+v", delivered, m)
		}
	}
}

// TestLinkFaultDrop: a targeted drop fault kills every message on its
// link and is counted separately from base loss.
func TestLinkFaultDrop(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 8})
	net.SetLinkFault("a", "b", LinkFault{DropProb: 1})
	for i := int64(0); i < 20; i++ {
		send(t, net, "a", "b", i)
	}
	net.Run(5)
	if got := len(seen("b")); got != 0 {
		t.Errorf("delivered %d messages through a 100%% drop fault", got)
	}
	ft := net.FaultTotals()
	if ft.MsgsDropped != 20 || ft.LinkFaults != 1 {
		t.Errorf("fault totals = %+v", ft)
	}
	// Clearing the fault restores the link.
	net.SetLinkFault("a", "b", LinkFault{})
	send(t, net, "a", "b", 99)
	net.RunFor(5)
	if got := seen("b"); len(got) != 1 || got[0] != 99 {
		t.Errorf("seen after clearing fault = %v", got)
	}
}

// TestLinkFaultDuplicate: duplication delivers each message twice (the
// receiver's deduplication is the application's problem, as on a real
// network).
func TestLinkFaultDuplicate(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 8})
	net.SetLinkFault("a", "b", LinkFault{DupProb: 1})
	for i := int64(0); i < 10; i++ {
		send(t, net, "a", "b", i)
	}
	// All ten sends have run (the sender's marshal scratch has been reused
	// nine times) and nothing has arrived yet: each in-flight record must
	// own its bytes, the duplicate included.
	net.Run(0.004)
	copies := make(map[uint64][]*message)
	for _, e := range net.sim.pq {
		if m, ok := e.do.(*message); ok {
			copies[m.id] = append(copies[m.id], m)
		}
	}
	if len(copies) != 10 {
		t.Fatalf("%d distinct messages in flight, want 10", len(copies))
	}
	tokens := make(map[int64]bool)
	for id, ms := range copies {
		if len(ms) != 2 {
			t.Fatalf("message %d: %d copies in flight, want 2", id, len(ms))
		}
		if &ms[0].raw[0] == &ms[1].raw[0] {
			t.Errorf("message %d: the duplicate shares the original's bytes", id)
		}
		a, _, errA := tuple.Unmarshal(ms[0].raw)
		b, _, errB := tuple.Unmarshal(ms[1].raw)
		if errA != nil || errB != nil || !a.Equal(b) || a.Name != "token" {
			t.Fatalf("message %d: copies decode to %v (%v) and %v (%v)", id, a, errA, b, errB)
		}
		tokens[a.Field(1).AsInt()] = true
	}
	if len(tokens) != 10 {
		t.Errorf("in-flight copies carry %d distinct tokens, want 10: a reused scratch leaked into them", len(tokens))
	}
	net.Run(5)
	if got := len(seen("b")); got != 10 {
		t.Errorf("seen %d distinct tokens, want 10", got)
	}
	if m := net.Node("b").Metrics(); m.MsgsRecv != 20 {
		t.Errorf("receiver saw %d messages, want 20 (duplicates)", m.MsgsRecv)
	}
	if ft := net.FaultTotals(); ft.MsgsDuplicated != 10 {
		t.Errorf("fault totals = %+v", ft)
	}
}

// TestLinkFaultReorder: reordered messages escape the per-link FIFO
// clamp, so with a wide delay spread the arrival order is no longer the
// send order.
func TestLinkFaultReorder(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 8, MinDelay: 0.001, MaxDelay: 0.5})
	net.SetLinkFault("a", "b", LinkFault{ReorderProb: 1})
	for i := int64(0); i < 30; i++ {
		send(t, net, "a", "b", i)
	}
	net.Run(10)
	got := seen("b")
	if len(got) != 30 {
		t.Fatalf("delivered %d of 30", len(got))
	}
	if sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("arrival order still FIFO under a 100% reorder fault")
	}
	if ft := net.FaultTotals(); ft.MsgsReordered != 30 {
		t.Errorf("fault totals = %+v", ft)
	}
}

// TestLinkFaultDelay: extra per-link jitter postpones delivery beyond
// the network's base latency bounds.
func TestLinkFaultDelay(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 8, MinDelay: 0.001, MaxDelay: 0.002})
	net.SetLinkFault("a", "b", LinkFault{ExtraDelay: 100})
	send(t, net, "a", "b", 1)
	net.Run(1)
	if got := len(seen("b")); got != 0 {
		t.Error("delivered within base latency despite a delay fault")
	}
	net.Run(200)
	if got := seen("b"); len(got) != 1 {
		t.Errorf("delayed message never arrived: %v", got)
	}
	if ft := net.FaultTotals(); ft.MsgsDelayed != 1 {
		t.Errorf("fault totals = %+v", ft)
	}
}

// TestLinkFaultWildcard: wildcard link faults apply to every matching
// link, with exact entries taking precedence.
func TestLinkFaultWildcard(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 8})
	net.SetLinkFault("*", "*", LinkFault{DropProb: 1})
	net.SetLinkFault("a", "b", LinkFault{DupProb: 1}) // exact wins: no drop
	for i := int64(0); i < 5; i++ {
		send(t, net, "a", "b", i)
		send(t, net, "b", "a", i)
	}
	net.Run(5)
	if got := len(seen("b")); got != 5 {
		t.Errorf("exact-match link delivered %d of 5", got)
	}
	if got := len(seen("a")); got != 0 {
		t.Errorf("wildcard drop let %d messages through", got)
	}
}

// tickProgram counts 1 Hz periodic firings in a materialized table.
const tickProgram = `
materialize(ticks, infinity, infinity, keys(1,2)).
t1 ticks@N(T) :- periodic@N(E, 1), T := f_now().
`

// countTicks scans a node's tick table.
func countTicks(net *Network, addr string) int {
	n := 0
	net.Node(addr).Store().Get("ticks").Scan(net.Sim().Now(), func(tuple.Tuple) { n++ })
	return n
}

// TestCrashStopsPeriodics: a crashed node's periodic timer chains die
// with it (epoch bump), and Revive re-arms exactly one chain — ticks
// resume at the configured rate, not doubled by a surviving old chain.
func TestCrashStopsPeriodics(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{Seed: 13})
	n, err := net.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallProgram(overlog.MustParse(tickProgram)); err != nil {
		t.Fatal(err)
	}
	net.Run(10.5)
	before := countTicks(net, "a")
	if before < 8 {
		t.Fatalf("only %d ticks in 10s", before)
	}
	net.Crash("a")
	net.RunFor(10)
	if got := countTicks(net, "a"); got != before {
		t.Errorf("crashed node ticked: %d -> %d", before, got)
	}
	net.Revive("a")
	net.RunFor(10)
	after := countTicks(net, "a")
	rate := after - before
	if rate < 8 || rate > 11 {
		t.Errorf("revived node ticked %d times in 10s, want ~10 (epoch guard)", rate)
	}
}

// TestRejoinLosesSoftState: Rejoin revives a node as a fresh process —
// its tables are empty (soft state lost) but its periodics run again
// and it processes new traffic.
func TestRejoinLosesSoftState(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 6})
	for i := int64(0); i < 5; i++ {
		send(t, net, "a", "b", i)
	}
	net.RunFor(1)
	if got := len(seen("b")); got != 5 {
		t.Fatalf("delivered %d of 5 before crash", got)
	}
	net.Crash("b")
	net.RunFor(1)
	net.Rejoin("b")
	net.RunFor(1)
	if got := seen("b"); len(got) != 0 {
		t.Errorf("soft state survived rejoin: %v", got)
	}
	send(t, net, "a", "b", 42)
	net.RunFor(1)
	if got := seen("b"); len(got) != 1 || got[0] != 42 {
		t.Errorf("rejoined node not processing traffic: %v", got)
	}
	if ft := net.FaultTotals(); ft.Crashes != 1 || ft.Rejoins != 1 {
		t.Errorf("fault totals = %+v", ft)
	}
}

// TestCrashBetweenArrivalAndTask: messages whose arrival event has run
// but whose task is still queued die with the crashed host's queue
// (uncounted, as TestCrashDiscardsQueuedTasks expects), messages still in
// flight are dropped and counted on arrival, and the message records the
// crash releases or abandons are never seen again through a stale
// reference: the traffic that reuses them arrives intact and the revived
// host processes nothing from before the crash.
func TestCrashBetweenArrivalAndTask(t *testing.T) {
	net, seen := buildHosts(t, Config{Seed: 4}, "a", "b", "c")
	b := net.hosts["b"]
	for i := int64(0); i < 50; i++ {
		send(t, net, "a", "b", i)
	}
	// Stop once some messages have arrived and are waiting for b's CPU
	// while others are still on the wire.
	for b.inbox.n < 3 {
		if !net.Sim().Step() {
			t.Fatal("b never queued three tasks")
		}
	}
	queued := b.inbox.n
	handled := net.Node("b").Metrics().MsgsRecv
	inFlight := 50 - int(handled) - queued
	if handled == 0 || inFlight == 0 {
		t.Fatalf("want a crash mid-burst: %d handled, %d queued, %d in flight", handled, queued, inFlight)
	}
	net.Crash("b")
	if held, _ := b.inbox.heldBytes(); b.inbox.n != 0 || held != 0 || len(b.inbox.side) != 0 {
		t.Fatalf("crash kept %d queued tasks in %d inbox bytes", b.inbox.n, held)
	}
	// Traffic that takes over the records the crash frees: a floods c
	// while b's in-flight messages land on a dead host.
	for i := int64(100); i < 150; i++ {
		send(t, net, "a", "c", i)
	}
	net.RunFor(5)
	if got := net.Dropped(); got != int64(inFlight) {
		t.Errorf("dropped = %d, want the %d messages in flight at the crash", got, inFlight)
	}
	if got := net.Node("b").Metrics().MsgsRecv; got != handled {
		t.Errorf("crashed host handled messages: MsgsRecv %d -> %d", handled, got)
	}
	got := seen("c")
	if len(got) != 50 {
		t.Fatalf("c saw %d of its 50 tokens: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(100+i) {
			t.Fatalf("c's token %d = %d: a recycled record leaked another message", i, v)
		}
	}
	net.Revive("b")
	send(t, net, "a", "b", 999)
	net.RunFor(5)
	after := seen("b")
	if len(after) != int(handled)+1 || after[len(after)-1] != 999 {
		t.Fatalf("revived b saw %v, want its %d pre-crash tokens then 999", after, handled)
	}
	for i, v := range after[:handled] {
		if v != int64(i) {
			t.Errorf("b's pre-crash token %d = %d, want the FIFO prefix", i, v)
		}
	}
}

// TestCrashWithKickRetryPending: a crash while the host waits for its CPU
// leaves the retry event in the heap. It must fire into an empty queue
// without running anything, and neither the revived host's traffic nor
// its timers may be doubled or lost because of it.
func TestCrashWithKickRetryPending(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{Seed: 13})
	n, err := net.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallProgram(overlog.MustParse(tickProgram + forwardProgram)); err != nil {
		t.Fatal(err)
	}
	net.Run(3.5)
	a := net.hosts["a"]
	token := func(seq int64) {
		t.Helper()
		if err := net.Inject("a", tuple.New("token", tuple.Str("a"), tuple.Int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		token(i) // the first runs at once and makes the CPU busy; the rest wait
	}
	if a.kickAt < 0 || a.inbox.n != 19 {
		t.Fatalf("want a pending kick retry over 19 queued tasks, got kickAt=%v queue=%d", a.kickAt, a.inbox.n)
	}
	retryAt := a.kickAt
	ticks := countTicks(net, "a")
	work := n.Metrics().TuplesProcessed
	net.Crash("a")
	net.Run(retryAt + 1) // the orphaned retry and the dead timer chain both come due
	if got := n.Metrics().TuplesProcessed; got != work {
		t.Errorf("crashed host ran tasks: TuplesProcessed %d -> %d", work, got)
	}
	if a.kickAt >= 0 {
		t.Errorf("retry did not fire: kickAt = %v", a.kickAt)
	}
	if held, _ := a.inbox.heldBytes(); a.inbox.n != 0 || held != 0 {
		t.Errorf("retry found %d tasks in %d inbox bytes, want an empty queue", a.inbox.n, held)
	}
	net.Revive("a")
	token(77)
	net.RunFor(10)
	seen := 0
	n.Store().Get("seen").Scan(sim.Now(), func(tp tuple.Tuple) {
		if v := tp.Field(1).AsInt(); v != 0 && v != 77 {
			t.Errorf("token %d ran: it was queued when the host crashed", v)
		}
		seen++
	})
	if seen != 2 {
		t.Errorf("seen %d tokens, want 0 (ran before the crash) and 77", seen)
	}
	if rate := countTicks(net, "a") - ticks; rate < 8 || rate > 11 {
		t.Errorf("revived host ticked %d times in 10s, want ~10", rate)
	}
}
