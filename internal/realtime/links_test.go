package realtime

import (
	"errors"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

func install(t *testing.T, n *engine.Node, program string) {
	t.Helper()
	if program == "" {
		return
	}
	if err := n.InstallProgram(overlog.MustParse(program)); err != nil {
		t.Fatal(err)
	}
}

// openNodes binds one stopped node per address on loopback, configured
// by cfg with Addr and Listen filled in, peers every node with every
// other and installs program on each. Every node stops when the test
// ends.
func openNodes(t *testing.T, cfg UDPNodeConfig, program string, addrs ...string) []*UDPNode {
	t.Helper()
	nodes := make([]*UDPNode, len(addrs))
	for i, addr := range addrs {
		cfg.Addr, cfg.Listen = addr, "127.0.0.1:0"
		u, err := NewUDPNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Stop)
		install(t, u.Node(), program)
		nodes[i] = u
	}
	for _, u := range nodes {
		for i, peer := range nodes {
			if err := u.AddPeer(addrs[i], peer.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes
}

// TestStopUnderLoad stops two nodes mid-traffic. The conservation law
// must then hold exactly on both — a datagram still queued at Stop is a
// DropShutdown, not a task parked on a dead queue — and Inject must
// answer ErrStopped every time, not when the select happens to pick the
// closed channel.
func TestStopUnderLoad(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		nodes := openNodes(t, UDPNodeConfig{Seed: 1}, helloProgram, "a", "b")
		a, b := nodes[0], nodes[1]
		a.Start()
		b.Start()
		for i := int64(0); i < 1000; i++ {
			if err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Stop once b has taken some of the traffic in, so the law is
		// checked over a non-empty run.
		eventually(t, "b to receive traffic", func() bool { return b.TransportStats().DatagramsRecv > 0 })
		a.Stop()
		b.Stop()

		for _, u := range nodes {
			s := u.TransportStats()
			if s.DatagramsRecv != s.DatagramsProcessed+s.DropDecode+s.DropOverload+s.DropShutdown {
				t.Errorf("%s: accounting does not balance after Stop: %+v", u.Node().Addr(), s)
			}
		}
		for i := 0; i < 100; i++ {
			err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(0)))
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("Inject %d after Stop = %v, want ErrStopped", i, err)
			}
		}
	})
}

// TestHopStampBound: the send stamp is bytes off the network, so only a
// stamp within maxHopAge of the batch clock is a latency measurement. A
// hostile 1, a stale stamp and a far-future one must leave HopLatency
// alone; a plausible one is observed.
func TestHopStampBound(t *testing.T) {
	e := udpNode(t, "a", "127.0.0.1:0").exec
	recs := appendRecord(nil, 1, tuple.Marshal(nil, tuple.New("ev", tuple.Str("a"), tuple.Int(1))))
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
		e.runOne(&task{at: now, sent: tc.sent, kind: taskDatagram, env: engine.Envelope{Src: "b", Raw: recs}},
			now, now.UnixNano(), 1)
		h = e.node.Hists()
		if moved := h.HopLatency.Count() != before; moved != tc.moves {
			t.Errorf("%s: histogram moved = %v, want %v", tc.name, moved, tc.moves)
		}
	}
	if h := e.node.Hists(); h.HopLatency.Quantile(1) > 1 {
		t.Errorf("hop latency max = %v s after one 1 ms hop", h.HopLatency.Quantile(1))
	}
}

// TestClockNeverStepsBack: a node's clock starts when the node is built
// and keeps running through Start, so a time read before Start (an
// install, a SeedLocal) is never ahead of one read on the loop after it.
func TestClockNeverStepsBack(t *testing.T) {
	u := udpNode(t, "a", "127.0.0.1:0")
	time.Sleep(20 * time.Millisecond)
	before := u.Node().Now()
	u.Start()
	var after float64
	u.exec.do(func() { after = u.Node().Now() })
	if after < before {
		t.Errorf("clock stepped back at Start: %.4f s before, %.4f s after", before, after)
	}
}
