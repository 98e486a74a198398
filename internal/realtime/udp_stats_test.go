package realtime

import (
	"net"
	"testing"
	"time"

	"p2go/internal/metrics"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// engineMetrics reads a node's engine counters on its own executor
// goroutine (the node is not safe for concurrent access).
func engineMetrics(t *testing.T, u *UDPNode) metrics.Node {
	t.Helper()
	res := make(chan metrics.Node, 1)
	select {
	case u.exec.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() { res <- u.exec.node.Metrics() }}:
	case <-time.After(time.Second):
		t.Fatal("executor not accepting tasks")
	}
	select {
	case m := <-res:
		return m
	case <-time.After(time.Second):
		t.Fatal("metrics read timed out")
		return metrics.Node{}
	}
}

// TestUDPTransportCounters: traffic over the real UDP transport is
// counted twice, consistently — payload-level by the engine's standard
// metrics.Node counters (as under the simulator) and datagram-level
// (with framing bytes and drop reasons) by the transport itself.
func TestUDPTransportCounters(t *testing.T) {
	prog := overlog.MustParse(`
materialize(heard, infinity, infinity, keys(1,2)).
g1 hello@Peer(N, X) :- say@N(Peer, X).
g2 heard@N(From, X) :- hello@N(From, X).
`)
	mk := func(addr string) *UDPNode {
		u, err := NewUDPNode(UDPNodeConfig{Addr: addr, Listen: "127.0.0.1:0", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Node().InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b := mk("a"), mk("b")
	defer a.Stop()
	defer b.Stop()
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()

	// Each message waits for the one before it to arrive, so each goes
	// in a batch, and so a datagram, of its own.
	const sent = 5
	for i := int64(0); i < sent; i++ {
		if err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
		eventually(t, "b to receive the message", func() bool { return engineMetrics(t, b).MsgsRecv == i+1 })
	}
	// One message to a peer a has no mapping for: engine bills the
	// send, the transport counts the drop.
	if err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("zzz"), tuple.Int(9))); err != nil {
		t.Fatal(err)
	}

	if bm := engineMetrics(t, b); bm.MsgsRecv != sent || bm.BytesRecv == 0 {
		t.Fatalf("engine recv counters on b = %+v, want %d msgs", bm, sent)
	}

	am := engineMetrics(t, a)
	if am.MsgsSent != sent+1 || am.BytesSent == 0 {
		t.Errorf("engine send counters on a = %+v, want %d msgs", am, sent+1)
	}
	as := a.TransportStats()
	if as.DatagramsSent != sent || as.DropUnknownPeer != 1 || as.BytesSent == 0 ||
		as.SendCalls == 0 || as.SendCalls > as.DatagramsSent {
		t.Errorf("transport stats on a = %+v", as)
	}
	bs := b.TransportStats()
	if bs.DatagramsRecv != sent || bs.BytesRecv != as.BytesSent || bs.DropDecode != 0 {
		t.Errorf("transport stats on b = %+v (a sent %d bytes)", bs, as.BytesSent)
	}

	// Undecodable noise is dropped and counted, without reaching the
	// engine.
	noise, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer noise.Close()
	if _, err := noise.Write([]byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if b.TransportStats().DropDecode == 1 {
			break
		}
	}
	bs = b.TransportStats()
	if bs.DropDecode != 1 {
		t.Errorf("decode drop not counted: %+v", bs)
	}
	if m := engineMetrics(t, b); m.MsgsRecv != sent {
		t.Errorf("noise reached the engine: %+v", m)
	}
}
