package simnet

import (
	"fmt"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// forwardProgram bounces a token between nodes: each hop appends nothing
// but re-sends, letting tests observe delivery order and loss.
const forwardProgram = `
materialize(seen, infinity, infinity, keys(1,2)).
f1 seen@N(Seq) :- token@N(Seq).
`

func buildPair(t *testing.T, cfg Config) (*Network, func(addr string) []int64) {
	t.Helper()
	return buildHosts(t, cfg, "a", "b")
}

func buildHosts(t *testing.T, cfg Config, addrs ...string) (*Network, func(addr string) []int64) {
	t.Helper()
	sim := NewSim()
	net := NewNetwork(sim, cfg)
	prog := overlog.MustParse(forwardProgram + `
f2 token@Dst(Seq) :- send@N(Dst, Seq).
`)
	for _, a := range addrs {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	seen := func(addr string) []int64 {
		var out []int64
		tb := net.Node(addr).Store().Get("seen")
		tb.Scan(sim.Now(), func(tp tuple.Tuple) {
			out = append(out, tp.Field(1).AsInt())
		})
		return out
	}
	return net, seen
}

func send(t *testing.T, net *Network, from, to string, seq int64) {
	t.Helper()
	err := net.Inject(from, tuple.New("send",
		tuple.Str(from), tuple.Str(to), tuple.Int(seq)))
	if err != nil {
		t.Fatal(err)
	}
}

// TestFIFODelivery: messages on one link arrive in send order even with
// randomized per-message delays (the §3.3 snapshot assumption).
func TestFIFODelivery(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 9, MinDelay: 0.001, MaxDelay: 0.5})
	for i := int64(0); i < 50; i++ {
		send(t, net, "a", "b", i)
	}
	net.Run(10)
	got := seen("b")
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("FIFO violated: position %d holds %d (%v)", i, v, got[:i+1])
		}
	}
}

// TestLossDropsSomeMessages: with heavy loss, deliveries shrink and the
// network counts drops.
func TestLossDropsSomeMessages(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 5, LossProb: 0.5})
	for i := int64(0); i < 100; i++ {
		send(t, net, "a", "b", i)
	}
	net.Run(10)
	got := len(seen("b"))
	if got == 0 || got == 100 {
		t.Errorf("delivered %d of 100 at 50%% loss", got)
	}
	if net.Dropped() == 0 {
		t.Error("drops not counted")
	}
}

// TestCrashStopsDelivery: messages to a crashed node are dropped; Revive
// restores delivery.
func TestCrashStopsDelivery(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 2})
	send(t, net, "a", "b", 1)
	net.RunFor(1)
	net.Crash("b")
	send(t, net, "a", "b", 2)
	net.RunFor(1)
	net.Revive("b")
	send(t, net, "a", "b", 3)
	net.RunFor(1)
	got := seen("b")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("seen = %v, want [1 3]", got)
	}
}

// TestPartitionAndHeal: a partition blocks both directions until healed.
func TestPartitionAndHeal(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 2})
	net.Partition("a", "b")
	send(t, net, "a", "b", 1)
	net.RunFor(1)
	if len(seen("b")) != 0 {
		t.Error("partitioned message delivered")
	}
	net.Heal("a", "b")
	send(t, net, "a", "b", 2)
	net.RunFor(1)
	if got := seen("b"); len(got) != 1 || got[0] != 2 {
		t.Errorf("seen = %v", got)
	}
}

// TestBusyNodeQueuesTasks: the single-server CPU model serializes tasks;
// total busy time accumulates across queued messages.
func TestBusyNodeQueuesTasks(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 4})
	for i := int64(0); i < 200; i++ {
		send(t, net, "a", "b", i)
	}
	net.Run(30)
	if len(seen("b")) != 200 {
		t.Fatalf("delivered %d", len(seen("b")))
	}
	m := net.Node("b").Metrics()
	if m.BusySeconds <= 0 || m.MsgsRecv != 200 {
		t.Errorf("metrics = %+v", m)
	}
	total := net.TotalMetrics()
	if total.MsgsSent < 200 {
		t.Errorf("total sent = %d", total.MsgsSent)
	}
}

// TestDuplicateNodeRejected and unknown-destination behavior.
func TestAddressing(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{})
	if _, err := net.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("a"); err == nil {
		t.Error("duplicate AddNode must fail")
	}
	if net.Node("zzz") != nil {
		t.Error("unknown Node must be nil")
	}
	if err := net.Inject("zzz", tuple.New("x", tuple.Str("zzz"))); err == nil {
		t.Error("Inject to unknown node must fail")
	}
	if got := net.Addrs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Addrs = %v", got)
	}
}

// TestDeterminism: identical seeds give identical traces.
func TestDeterminism(t *testing.T) {
	run := func() string {
		sim := NewSim()
		net := NewNetwork(sim, Config{Seed: 11, MinDelay: 0.01, MaxDelay: 0.2, LossProb: 0.1})
		log := ""
		p := overlog.MustParse(forwardProgram + `
f2 token@Dst(Seq) :- send@N(Dst, Seq).
`)
		for _, a := range []string{"a", "b", "c"} {
			n, _ := net.AddNode(a)
			if err := n.InstallProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 30; i++ {
			dst := "b"
			if i%2 == 0 {
				dst = "c"
			}
			net.Inject("a", tuple.New("send", tuple.Str("a"), tuple.Str(dst), tuple.Int(i))) //nolint:errcheck
		}
		net.Run(5)
		for _, a := range []string{"b", "c"} {
			tb := net.Node(a).Store().Get("seen")
			tb.Scan(net.Sim().Now(), func(tp tuple.Tuple) {
				log += fmt.Sprintf("%s:%v;", a, tp.Field(1).AsInt())
			})
		}
		return log
	}
	if run() != run() {
		t.Error("identical seeds must produce identical runs")
	}
}

// TestInjectAt schedules a future local delivery.
func TestInjectAt(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 3})
	if err := net.InjectAt(5, "a", tuple.New("send",
		tuple.Str("a"), tuple.Str("b"), tuple.Int(7))); err != nil {
		t.Fatal(err)
	}
	if err := net.InjectAt(2, "zzz", tuple.New("x", tuple.Str("zzz"))); err == nil {
		t.Error("InjectAt to unknown node must fail")
	}
	net.Run(4)
	if len(seen("b")) != 0 {
		t.Error("delivered before its scheduled time")
	}
	net.Run(10)
	if got := seen("b"); len(got) != 1 || got[0] != 7 {
		t.Errorf("seen = %v", got)
	}
}

// TestCrashDiscardsQueuedTasks: tasks already queued on a node are
// dropped at crash (fail-stop), and InjectAt to a down node is dropped.
func TestCrashDiscardsQueuedTasks(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 4})
	for i := int64(0); i < 50; i++ {
		send(t, net, "a", "b", i)
	}
	// Let deliveries be scheduled but crash before most are processed.
	net.RunFor(0.006)
	net.Crash("b")
	if err := net.InjectAt(net.Sim().Now()+1, "b",
		tuple.New("token", tuple.Str("b"), tuple.Int(99))); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5)
	if got := len(seen("b")); got == 50 {
		t.Errorf("crash did not stop processing (saw %d)", got)
	}
	for _, v := range seen("b") {
		if v == 99 {
			t.Error("InjectAt delivered to a crashed node")
		}
	}
}

// TestRunQueueGivesCapacityBack: a burst's inbox bytes do not outlive
// the burst. The consumed prefix is compacted away as the inbox drains,
// a buffer over the floor stays at least a quarter full, the drained
// inbox ends at the floor, and the tasks still run in FIFO order.
func TestRunQueueGivesCapacityBack(t *testing.T) {
	net, seen := buildPair(t, Config{Seed: 4})
	b := net.hosts["b"]
	const burst = 3000
	const maxRecord = 128 // a token record here is about 30 bytes
	for i := int64(0); i < burst; i++ {
		send(t, net, "a", "b", i)
	}
	peak, peakCap := 0, 0
	for net.Sim().NextAt() < 600 && net.Sim().Step() {
		q := &b.inbox
		live, c := len(q.buf)-q.head, cap(q.buf)
		peak, peakCap = max(peak, q.n), max(peakCap, c)
		if c > inboxMinCap && 4*len(q.buf) < c {
			t.Fatalf("inbox holds %d bytes in %d after a compaction", len(q.buf), c)
		}
		// The last task start compacted first unless the consumed prefix
		// was under the threshold or the live rest.
		if q.head >= max(inboxCompactAt, live)+2*maxRecord {
			t.Fatalf("inbox keeps %d consumed bytes before %d live ones", q.head, live)
		}
	}
	// The parent run queue peaked at 794 live tasks in 1706 slots here;
	// the inbox queues the same tasks (the schedule is unchanged).
	if peak < burst/4 || peakCap <= inboxMinCap {
		t.Fatalf("burst never queued up: peak %d tasks in %d bytes", peak, peakCap)
	}
	if c := cap(b.inbox.buf); b.inbox.n != 0 || c > inboxMinCap {
		t.Errorf("drained inbox keeps %d tasks in %d bytes, want none in at most %d", b.inbox.n, c, inboxMinCap)
	}
	got := seen("b")
	if len(got) != burst {
		t.Fatalf("delivered %d of %d", len(got), burst)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("FIFO violated at %d: %d", i, v)
		}
	}
}

// TestMessageReleaseBoundsBuffer: a recycled record keeps its buffer for
// the next message unless one oversized frame stretched it.
func TestMessageReleaseBoundsBuffer(t *testing.T) {
	var net Network
	small := &message{raw: make([]byte, 90, 96)}
	big := &message{raw: make([]byte, 90, maxKeptRaw+1)}
	net.release(small)
	net.release(big)
	if cap(small.raw) != 96 || len(small.raw) != 0 {
		t.Errorf("a 96-byte buffer was released as len %d cap %d", len(small.raw), cap(small.raw))
	}
	if big.raw != nil {
		t.Errorf("a %d-byte buffer went back to the free list", cap(big.raw))
	}
	if m := net.newMessage(); m != big || len(net.msgs) != 1 {
		t.Errorf("newMessage took %p and left %d records", m, len(net.msgs))
	}
}
