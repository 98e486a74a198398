package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"testing"

	"p2go/internal/allocwin"
	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// pingPongProgram bounces every ping back to where it came from, forever.
const pingPongProgram = `
p1 ping@Other(N, K) :- ping@N(Other, K).
`

// TestSchedulerAllocs: with heap, queues and the record list warm, an
// event allocates nothing. A func event is checked alone; a message event
// is checked end to end — decode into the task arena, strand, head,
// marshal into the node's scratch, copy into a recycled record — on a
// ping-pong that stores nothing, so nothing has a reason to allocate.
func TestSchedulerAllocs(t *testing.T) {
	t.Run("func", func(t *testing.T) {
		s := NewSim()
		noop := func() {}
		for i := 0; i < 512; i++ {
			s.At(float64(i), noop)
		}
		if got := testing.AllocsPerRun(1000, func() {
			s.At(s.Now()+300, noop)
			s.Step()
		}); got != 0 {
			t.Errorf("At+Step of a func event: %v allocs, want 0", got)
		}
	})

	t.Run("message", func(t *testing.T) {
		// Each window runs on a freshly warmed network.
		var net *Network
		var events0 uint64
		var msgs0 int64
		recv := func() int64 { return net.Node("a").Metrics().MsgsRecv + net.Node("b").Metrics().MsgsRecv }
		w, all := allocwin.Exact(func() {
			net = pingPong(t)
			// Warm heap, run queues, record list and link state. The
			// window draws from two RNG streams only, the links a->b and
			// b->a (one delay draw a message; neither host has a periodic
			// to stagger), and a stream allocates its vector at its 607th
			// draw: each link must be past it before the window opens.
			net.RunFor(5)
			for _, a := range []string{"a", "b"} {
				if sent := net.Node(a).Metrics().MsgsSent; sent < 607 {
					t.Fatalf("warm-up too short: %s's link drew %d values, not yet past its 607th", a, sent)
				}
			}
			events0, msgs0 = net.Sim().Executed(), recv()
		}, func() { net.RunFor(20) })
		events, msgs := net.Sim().Executed()-events0, recv()-msgs0
		if msgs < 5000 || events <= uint64(msgs) {
			t.Fatalf("weak run: %v messages in %v events (want kick retries among them)", msgs, events)
		}
		if w.Objects != 0 {
			for _, w := range all {
				t.Log(w)
			}
			t.Errorf("%v allocs over %v events carrying %v messages, want 0", w.Objects, events, msgs)
		}
	})

	// A host stalled behind a backlog keeps every queued message as
	// bytes in its inbox: with the record list warm (a first burst of the
	// same shape), the second burst's only allocations are the two
	// inboxes' chunks: the first chunk's growth up to inboxChunk bytes,
	// then one chunk for every inboxChunk bytes of backlog (and the
	// slice that lists them, which doubles). Nothing is regrown or
	// copied.
	t.Run("backlog", func(t *testing.T) {
		const burst = 10000
		net := NewNetwork(NewSim(), Config{Seed: 3, SweepInterval: 1e9})
		for _, a := range []string{"a", "b"} {
			n, err := net.AddNode(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InstallProgram(overlog.MustParse(pongProgram)); err != nil {
				t.Fatal(err)
			}
		}
		pings := make([][]byte, burst)
		for k := range pings {
			pings[k] = tuple.Marshal(nil, tuple.New("ping", tuple.Str("b"), tuple.Str("a"), tuple.Int(int64(k))))
		}
		warm, _ := backlogAllocs(t, net, pings)
		recv0 := net.Node("b").Metrics().MsgsRecv
		total, peak := backlogAllocs(t, net, pings)
		if got := net.Node("b").Metrics().MsgsRecv - recv0; got != burst {
			t.Fatalf("b handled %d of %d pings", got, burst)
		}
		if peak < burst/2 {
			t.Fatalf("weak run: the deepest inbox held %d tasks", peak)
		}
		// A full first chunk moves to 1.5 times its live bytes; one ping
		// record is under 64 bytes.
		growth := int(math.Ceil(math.Log(inboxChunk/inboxMinCap) / math.Log(1.5)))
		chunks := (burst*64 + inboxChunk - 1) / inboxChunk
		t.Logf("%d allocs warming, %d for %d queued pings (%d growth steps and %d chunks an inbox)", warm, total, burst, growth, chunks)
		if total > uint64(2*(growth+chunks)) {
			t.Errorf("%v allocs for a backlog of %d pings, want at most the inboxes' growth and chunks, %d", total, burst, 2*(growth+chunks))
		}
	})
}

// TestRepeatAllocs: a message that repeats the one queued before it from
// the same sender, as Chord's l3 lookups do, is a 10-byte record. Once
// warm, a flowing inbox moves repeats without allocating (a lone chunk
// regrown for an odd number of bytes must compact in place when they
// come again); a backlog of
// them allocates the lone chunk's growth steps, one chunk per inboxChunk
// bytes of 10-byte records, the slice that lists the chunks, and, as the
// last chunk drains, the buffers of at least halving size its live bytes
// move to.
func TestRepeatAllocs(t *testing.T) {
	raw := make([]byte, 37) // the 1000-host join's mean frame
	var q inbox
	now, id := 0.0, uint64(0)
	push := func() {
		now, id = now+1, id+1
		q.pushMessage(now, 500, id, raw)
	}
	pop := func() {
		q.pop(now)
		if q.n == 0 {
			q.trim()
		}
	}

	t.Run("flowing", func(t *testing.T) {
		w, all := allocwin.Exact(func() {
			q.reset()
			now, id = 0, 1<<20 // a 3-byte uvarint in the full record, as on a busy node
			for range 16 {
				push()
			}
			for range 1000 {
				push()
				pop()
			}
		}, func() {
			for range 10000 {
				push()
				pop()
			}
		})
		if w.Objects != 0 {
			for _, w := range all {
				t.Log(w)
			}
			t.Errorf("%v allocs moving 10 000 repeats through a flowing inbox, want 0", w.Objects)
		}
	})

	t.Run("backlog", func(t *testing.T) {
		const burst = 100000
		peak := 0
		backlog := func() {
			for range burst {
				push()
			}
			peak, _ = q.heldBytes()
			for q.n > 0 {
				pop()
			}
		}
		q.reset()
		backlog()
		w := allocwin.Measure(backlog)
		growth := int(math.Ceil(math.Log(inboxChunk/inboxMinCap) / math.Log(1.5)))
		shrink := bits.Len(inboxChunk/inboxMinCap) - 1
		chunks := (burst*10 + inboxChunk - 1) / inboxChunk
		lists := bits.Len(uint(chunks)) + 1 // next grows by doubling
		t.Logf("%d allocs, %d B, for %d queued repeats held in %d B", w.Objects, w.Bytes, burst, peak)
		if want := growth + shrink + chunks + lists; w.Objects > uint64(want) {
			t.Errorf("%v allocs for a backlog of %d repeats, want at most %d growth steps, %d shrink steps, %d chunks and %d lists",
				w.Objects, burst, growth, shrink, chunks, lists)
		}
	})
}

// pingPong builds two hosts bouncing eight pings between them: arrivals
// that find the CPU busy exercise the kick retry as well.
func pingPong(t *testing.T) *Network {
	t.Helper()
	prog := overlog.MustParse(pingPongProgram)
	net := NewNetwork(NewSim(), Config{Seed: 3, SweepInterval: 1e9})
	for _, a := range []string{"a", "b"} {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 8; k++ {
		if err := net.Inject("a", tuple.New("ping", tuple.Str("a"), tuple.Str("b"), tuple.Int(k))); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// pongProgram answers every ping once; nothing handles the pong.
const pongProgram = `
p1 pong@Other(N, K) :- ping@N(Other, K).
`

// backlogAllocs delivers burst pings from a to b at once, so b stalls
// behind them and a behind the pongs, runs until both inboxes drain, and
// returns the allocations and the peak queued tasks.
func backlogAllocs(t *testing.T, net *Network, pings [][]byte) (allocs uint64, peak int) {
	t.Helper()
	a, b := net.hosts["a"], net.hosts["b"]
	now := net.Sim().Now()
	w := allocwin.Measure(func() {
		for k, raw := range pings {
			net.deliver(a, "b", engine.Envelope{Src: "a", SrcTupleID: uint64(k), Raw: raw}, now)
		}
		for net.Sim().Step() {
			peak = max(peak, a.inbox.n, b.inbox.n)
			if net.Sim().Now() > now+1 && a.inbox.n == 0 && b.inbox.n == 0 && net.Sim().Pending() <= 2 {
				break
			}
		}
	})
	return w.Objects, peak
}

// TestNewLinkAllocs: a link's state is one record with its RNG stream
// inside, and the stream allocates only when it first draws, so the
// first send on a link costs at most two objects more than a send on a
// link that exists. Averaged over 300 links as testing.AllocsPerRun
// averages, which rounds the links map's occasional growth away.
func TestNewLinkAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const links = 300
	net := NewNetwork(NewSim(), Config{Seed: 5, SweepInterval: 1e9})
	if _, err := net.AddNode("src"); err != nil {
		t.Fatal(err)
	}
	dsts := make([]string, links)
	for i := range dsts {
		dsts[i] = fmt.Sprintf("d%d", i)
		if _, err := net.AddNode(dsts[i]); err != nil {
			t.Fatal(err)
		}
	}
	src := net.hosts["src"]
	env := engine.Envelope{Src: "src", SrcTupleID: 1, Raw: make([]byte, 64)}
	next := 0
	send := func() {
		net.deliver(src, dsts[next%links], env, 0)
		next++
	}
	// AllocsPerRun makes one warm-up call beyond its count.
	fresh := testing.AllocsPerRun(links-1, send)
	if len(src.links) != links {
		t.Fatalf("%d links after the first pass, want %d", len(src.links), links)
	}
	existing := testing.AllocsPerRun(links-1, send)
	if fresh > existing+2 {
		t.Errorf("first send on a link: %v allocs, on an existing link %v; want at most 2 more", fresh, existing)
	}
}
