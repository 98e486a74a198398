package realtime

import (
	"errors"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// The executor is one body behind two links, so a test of that body is
// one table over both. A linkPair is nodes "a" and "b" behind one link,
// peered both ways, stopped, with one program installed; inject, stats
// and serve are the link's public Inject, TransportStats and
// ServeMetrics.
type linkPair struct {
	a, b    *executor
	inject  func(addr string, t tuple.Tuple) error
	stats   func(addr string) TransportStats
	serve   func(listen string) (string, error)
	scraped []string // the node labels one scrape of serve covers
	start   func()
	stop    func()
}

type linkOpts struct {
	depth    int
	overload OverloadPolicy
	maxDelay time.Duration // the channel link's one-way delay bound
}

var links = []struct {
	name string
	open func(t *testing.T, program string, o linkOpts) *linkPair
}{
	{"network", openNetwork},
	{"udp", openUDP},
}

func install(t *testing.T, n *engine.Node, program string) {
	t.Helper()
	if program == "" {
		return
	}
	if err := n.InstallProgram(overlog.MustParse(program)); err != nil {
		t.Fatal(err)
	}
}

func openNetwork(t *testing.T, program string, o linkOpts) *linkPair {
	t.Helper()
	net := NewNetwork(Config{Seed: 1, QueueDepth: o.depth, Overload: o.overload, MaxDelay: o.maxDelay})
	for _, addr := range []string{"a", "b"} {
		n, err := net.AddNode(addr)
		if err != nil {
			t.Fatal(err)
		}
		install(t, n, program)
	}
	t.Cleanup(net.Stop)
	return &linkPair{
		a: net.nodes["a"], b: net.nodes["b"],
		inject: net.Inject,
		stats: func(addr string) TransportStats {
			s, err := net.TransportStats(addr)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		serve: net.ServeMetrics, scraped: []string{"a", "b"},
		start: net.Start, stop: net.Stop,
	}
}

func openUDP(t *testing.T, program string, o linkOpts) *linkPair {
	t.Helper()
	nodes := map[string]*UDPNode{}
	for _, addr := range []string{"a", "b"} {
		u, err := NewUDPNode(UDPNodeConfig{
			Addr: addr, Listen: "127.0.0.1:0", Seed: 1, QueueDepth: o.depth, Overload: o.overload,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Stop)
		install(t, u.Node(), program)
		nodes[addr] = u
	}
	a, b := nodes["a"], nodes["b"]
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	return &linkPair{
		a: a.exec, b: b.exec,
		inject:  func(addr string, t tuple.Tuple) error { return nodes[addr].Inject(t) },
		stats:   func(addr string) TransportStats { return nodes[addr].TransportStats() },
		serve:   b.ServeMetrics,
		scraped: []string{"b"},
		start:   func() { a.Start(); b.Start() },
		stop:    func() { a.Stop(); b.Stop() },
	}
}

// TestStopUnderLoad stops both links mid-traffic. Once every delay timer
// has fired, the conservation law must hold exactly on both nodes — a
// message whose delay outlived Stop is a DropShutdown, not a task parked
// on a dead queue — and Inject must answer ErrStopped every time, not
// when the select happens to pick the closed channel.
func TestStopUnderLoad(t *testing.T) {
	const maxDelay = 50 * time.Millisecond
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			p := l.open(t, `
materialize(heard, infinity, infinity, keys(1,2)).
g1 hello@Peer(N, X) :- say@N(Peer, X).
g2 heard@N(From, X) :- hello@N(From, X).
`, linkOpts{maxDelay: maxDelay})
			p.start()
			for i := int64(0); i < 1000; i++ {
				if err := p.inject("a", tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Stop once b has taken some of the traffic in, so the law
			// is checked over a non-empty run.
			eventually(t, "b to receive traffic", func() bool { return p.stats("b").DatagramsRecv > 0 })
			p.stop()
			// No event announces "every delay timer armed before Stop has
			// fired"; twice the longest delay is the wait.
			time.Sleep(2 * maxDelay)

			for _, name := range []string{"a", "b"} {
				s := p.stats(name)
				if s.DatagramsRecv != s.DatagramsProcessed+s.DropDecode+s.DropOverload+s.DropShutdown {
					t.Errorf("%s: accounting does not balance after Stop: %+v", name, s)
				}
			}
			for i := 0; i < 100; i++ {
				err := p.inject("a", tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(0)))
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("Inject %d after Stop = %v, want ErrStopped", i, err)
				}
			}
		})
	}
}

// TestHopStampBound: the send stamp is bytes off the network, so only a
// stamp within maxHopAge of the batch clock is a latency measurement. A
// hostile 1, a stale stamp and a far-future one must leave HopLatency
// alone; a plausible one is observed.
func TestHopStampBound(t *testing.T) {
	p := openNetwork(t, "", linkOpts{})
	e := p.a
	env := engine.Envelope{Src: "b", SrcTupleID: 1,
		Raw: tuple.Marshal(nil, tuple.New("ev", tuple.Str("a"), tuple.Int(1)))}
	now := time.Now()
	for _, tc := range []struct {
		name  string
		sent  int64
		moves bool
	}{
		{"stamp 1", 1, false},
		{"two minutes old", now.Add(-2 * time.Minute).UnixNano(), false},
		{"two minutes ahead", now.Add(2 * time.Minute).UnixNano(), false},
		{"one millisecond old", now.Add(-time.Millisecond).UnixNano(), true},
	} {
		h := e.node.Hists()
		before := h.HopLatency.Count()
		e.runOne(&task{at: now, sent: tc.sent, kind: taskMsg, env: env}, now, now.UnixNano(), 1)
		h = e.node.Hists()
		if moved := h.HopLatency.Count() != before; moved != tc.moves {
			t.Errorf("%s: histogram moved = %v, want %v", tc.name, moved, tc.moves)
		}
	}
	if h := e.node.Hists(); h.HopLatency.Quantile(1) > 1 {
		t.Errorf("hop latency max = %v s after one 1 ms hop", h.HopLatency.Quantile(1))
	}
}
