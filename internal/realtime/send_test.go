package realtime

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// The send half of the socket link: frames queued per batch, written
// with sendmmsg where the platform has it (batched) and WriteToUDP per
// frame where it does not (portable). Both paths are compiled on every
// platform, so a test that runs both covers the fallback too.

var writePathNames = []string{"batched", "portable"}

// writePaths runs f against a fresh unstarted node on each write path
// the platform has.
func writePaths(t *testing.T, listen string, f func(t *testing.T, u *UDPNode)) {
	for _, path := range writePathNames {
		t.Run(path, func(t *testing.T) {
			u := udpNode(t, "a", listen)
			useWritePath(t, u, path)
			f(t, u)
		})
	}
}

// useWritePath puts u on the named write path: the portable one is
// forced by dropping the batched writer, the batched one skips where the
// platform has none.
func useWritePath(tb testing.TB, u *UDPNode, path string) {
	if path == "portable" {
		u.bw = nil
	} else if u.bw == nil {
		tb.Skip("no sendmmsg on this platform")
	}
}

// udpNode binds an unstarted node, stopped when the test ends.
func udpNode(t testing.TB, addr, listen string) *UDPNode {
	t.Helper()
	u, err := NewUDPNode(UDPNodeConfig{Addr: addr, Listen: listen, Seed: 1, SocketBuf: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	return u
}

// sink binds a bare socket for a node to send to.
func sink(t testing.TB, network, listen string) *net.UDPConn {
	t.Helper()
	laddr, err := net.ResolveUDPAddr(network, listen)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.ListenUDP(network, laddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// datagram is one datagram read off a sink: its length and its records.
type datagram struct {
	size int
	envs []engine.Envelope
}

// readDatagrams reads n datagrams off c and decodes them; a lost one
// fails the test at the deadline instead of hanging it.
func readDatagrams(t *testing.T, c *net.UDPConn, n int) []datagram {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var got []datagram
	buf := make([]byte, 64<<10)
	for len(got) < n {
		k, err := c.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), n, err)
		}
		envs, err := decodeEnvelopes(buf[:k])
		if err != nil {
			t.Fatalf("datagram %d: %v", len(got), err)
		}
		got = append(got, datagram{size: k, envs: envs})
	}
	return got
}

// decodeEnvelopes decodes a datagram into its envelopes, each with its
// own copy of the tuple bytes.
func decodeEnvelopes(b []byte) ([]engine.Envelope, error) {
	src, _, recs, err := decodeDatagram(nil, b)
	if err != nil {
		return nil, err
	}
	var envs []engine.Envelope
	for len(recs) > 0 {
		id, raw, rest, _ := nextRecord(recs)
		envs = append(envs, engine.Envelope{Src: src, SrcTupleID: id, Raw: bytes.Clone(raw)})
		recs = rest
	}
	return envs, nil
}

// readEnvelopes reads datagrams off c until they have carried n
// envelopes, and returns those in order.
func readEnvelopes(t *testing.T, c *net.UDPConn, n int) []engine.Envelope {
	t.Helper()
	var got []engine.Envelope
	for len(got) < n {
		got = append(got, readDatagrams(t, c, 1)[0].envs...)
	}
	return got
}

// inBatch runs fn the way the executor runs a batch of tasks: under a
// batch clock, with the link's end-of-batch hook after it.
func inBatch(u *UDPNode, fn func()) {
	u.exec.batchNanos = time.Now().UnixNano()
	fn()
	u.exec.endBatch()
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testEnvelope(id uint64) engine.Envelope {
	return engine.Envelope{Src: "a", SrcTupleID: id,
		Raw: tuple.Marshal(nil, tuple.New("hello", tuple.Str("r"), tuple.Int(int64(id))))}
}

const helloProgram = `
materialize(heard, infinity, infinity, keys(1,2)).
g1 hello@Peer(N, X) :- say@N(Peer, X).
g2 heard@N(From, X) :- hello@N(From, X).
`

// TestAddPeerWhileRunning: the peer table belongs to the executor, so a
// peer added while sends are flowing (to what is, until then, an unknown
// peer) races nothing under -race, and every send after AddPeer returns
// reaches the peer.
func TestAddPeerWhileRunning(t *testing.T) {
	a, b := udpNode(t, "a", "127.0.0.1:0"), udpNode(t, "b", "127.0.0.1:0")
	install(t, a.Node(), helloProgram)
	install(t, b.Node(), helloProgram)
	a.Start()
	b.Start()
	const before, after = 200, 100
	say := func(i int) {
		if err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(int64(i)))); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < before; i++ {
			say(i)
		}
	}()
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := before; i < before+after; i++ {
		say(i)
	}
	eventually(t, "a to send every envelope", func() bool {
		return a.MetricsSnapshot().Node.MsgsSent == before+after
	})
	as := a.TransportStats()
	written := before + after - as.DropUnknownPeer
	if written < after {
		t.Errorf("%d envelopes written, want at least the %d sent after AddPeer", written, after)
	}
	if as.DatagramsSent == 0 || as.DatagramsSent > written {
		t.Errorf("%d datagrams carried %d envelopes", as.DatagramsSent, written)
	}
	eventually(t, "b to receive what a sent", func() bool {
		return b.MetricsSnapshot().Node.MsgsRecv == written
	})
	if bs := b.TransportStats(); bs.DatagramsProcessed != as.DatagramsSent {
		t.Errorf("b processed %d datagrams, a sent %d", bs.DatagramsProcessed, as.DatagramsSent)
	}
}

// TestBatchedSendFanout: one task fans out more envelopes than several
// sendmmsg calls carry, all to one peer. Every one arrives, bundled into
// one datagram per ioBatch envelopes (the flush comes at ioBatch queued
// envelopes and they all fit one bundle), and the batched writer needs a
// few calls, not one per envelope.
func TestBatchedSendFanout(t *testing.T) {
	const fanout = 3*ioBatch + 5
	const program = `
materialize(item, infinity, infinity, keys(1,2)).
f1 hello@Peer(N, I) :- go@N(Peer), item@N(I).
`
	writePaths(t, "127.0.0.1:0", func(t *testing.T, a *UDPNode) {
		install(t, a.Node(), program)
		b := udpNode(t, "b", "127.0.0.1:0")
		if err := a.AddPeer("b", b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fanout; i++ {
			a.Node().SeedLocal(tuple.New("item", tuple.Str("a"), tuple.Int(int64(i))))
		}
		a.Start()
		b.Start()
		if err := a.Inject(tuple.New("go", tuple.Str("a"), tuple.Str("b"))); err != nil {
			t.Fatal(err)
		}
		eventually(t, "the fan-out to arrive", func() bool { return b.MetricsSnapshot().Node.MsgsRecv == fanout })
		if sent := a.MetricsSnapshot().Node.MsgsSent; sent != fanout {
			t.Errorf("a sent %d envelopes, want %d", sent, fanout)
		}
		as, bs := a.TransportStats(), b.TransportStats()
		const datagrams = (fanout + ioBatch - 1) / ioBatch
		if as.DatagramsSent != datagrams || bs.DatagramsRecv != datagrams {
			t.Errorf("a sent %d datagrams and b received %d, want %d", as.DatagramsSent, bs.DatagramsRecv, datagrams)
		}
		if a.bw != nil && as.SendCalls > 2*datagrams {
			t.Errorf("batched writer made %d calls for %d datagrams", as.SendCalls, datagrams)
		}
		if a.bw == nil && as.SendCalls != datagrams {
			t.Errorf("portable writer made %d calls for %d datagrams", as.SendCalls, datagrams)
		}
	})
}

// TestSendSkipsRejectedFrame: the kernel rejects a frame to port 0
// (EINVAL). It is lost like any datagram, counted sent as a failed
// WriteToUDP always was, and the frame queued behind it still goes.
func TestSendSkipsRejectedFrame(t *testing.T) {
	writePaths(t, "127.0.0.1:0", func(t *testing.T, u *UDPNode) {
		r := sink(t, "udp4", "127.0.0.1:0")
		if err := u.AddPeer("r", r.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := u.AddPeer("zero", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		inBatch(u, func() {
			u.send("r", testEnvelope(1), 0)
			u.send("zero", testEnvelope(2), 0)
			u.send("r", testEnvelope(3), 0)
		})
		got := readEnvelopes(t, r, 2)
		if got[0].SrcTupleID != 1 || got[1].SrcTupleID != 3 {
			t.Errorf("received %+v, want the frames with IDs 1 and 3", got)
		}
		if s := u.TransportStats(); s.DatagramsSent != 3 {
			t.Errorf("DatagramsSent = %d, want 3", s.DatagramsSent)
		}
	})
}

// TestSendFamilies: the batched writer lays each peer's address out in
// the socket's own family, read from getsockname — including a v4 peer
// of a dual-stack wildcard socket, which needs a v4-mapped address. A
// peer with a zone is left to WriteToUDP. A send from outside any batch
// is written before it returns.
func TestSendFamilies(t *testing.T) {
	for _, tc := range []struct {
		name, listen, peerNet, peerAt string
		v6, zoned                     bool
	}{
		{"v4 to v4", "127.0.0.1:0", "udp4", "127.0.0.1:0", false, false},
		{"v6 to v6", "[::1]:0", "udp6", "[::1]:0", true, false},
		{"wildcard to v4", ":0", "udp4", "127.0.0.1:0", false, false},
		{"v6 to zoned v6", "[::1]:0", "udp6", "[::1]:0", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.v6 {
				c, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback})
				if err != nil {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				c.Close()
			}
			u := udpNode(t, "a", tc.listen)
			r := sink(t, tc.peerNet, tc.peerAt)
			peer := *r.LocalAddr().(*net.UDPAddr)
			if tc.zoned {
				peer.Zone = loopbackName(t)
			}
			if err := u.AddPeer("r", peer.String()); err != nil {
				t.Fatal(err)
			}
			if batched := u.peers["r"].sa != nil; u.bw != nil && batched == tc.zoned {
				t.Fatalf("peer %s has a sockaddr for the batched writer: %v, want %v", peer.String(), batched, !tc.zoned)
			}
			u.send("r", testEnvelope(7), 0)
			if s := u.TransportStats(); s.SendCalls != 1 {
				t.Errorf("a send outside any batch made %d write calls by the time it returned, want 1", s.SendCalls)
			}
			if got := readEnvelopes(t, r, 1); got[0].Src != "a" || got[0].SrcTupleID != 7 {
				t.Errorf("received %+v", got[0])
			}
		})
	}
}

// loopbackName names the host's loopback interface.
func loopbackName(t *testing.T) string {
	ifs, err := net.Interfaces()
	if err != nil {
		t.Fatal(err)
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback != 0 {
			return ifi.Name
		}
	}
	t.Skip("no loopback interface")
	return ""
}

// BenchmarkSendPath measures the send half per envelope: frame into the
// queue, bundled with the envelopes before it to the same peer, and one
// write per ioBatch envelopes (batched) or per datagram (portable), to a
// loopback socket a goroutine drains. datagrams/envelope is how many
// datagrams carried them.
func BenchmarkSendPath(b *testing.B) {
	for _, path := range writePathNames {
		b.Run(path, func(b *testing.B) {
			u := udpNode(b, "a", "127.0.0.1:0")
			useWritePath(b, u, path)
			r := sink(b, "udp4", "127.0.0.1:0")
			var drained sync.WaitGroup
			drained.Add(1)
			go func() {
				defer drained.Done()
				buf := make([]byte, 2048)
				for {
					if _, err := r.Read(buf); err != nil {
						return
					}
				}
			}()
			defer drained.Wait()
			defer r.Close()
			if err := u.AddPeer("r", r.LocalAddr().String()); err != nil {
				b.Fatal(err)
			}
			env := testEnvelope(1)
			b.ReportAllocs()
			b.ResetTimer()
			inBatch(u, func() {
				for i := 0; i < b.N; i++ {
					u.send("r", env, 0)
				}
			})
			b.ReportMetric(float64(u.TransportStats().DatagramsSent)/float64(b.N), "datagrams/envelope")
		})
	}
}
