package realtime

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// Bundling: the envelopes one batch sends to one peer share a datagram,
// up to ioBatch envelopes and min(maxBundle, MaxDatagram) bytes.

// heardProgram keeps every hello it hears, one row per value.
const heardProgram = `
materialize(heard, infinity, infinity, keys(1,2,3)).
g2 heard@N(From, X) :- hello@N(From, X).
`

// TestBundleOnePeer: one task sends 3*ioBatch+5 envelopes to one peer.
// The queue is written as soon as it holds ioBatch envelopes, not at the
// batch end; every envelope arrives, the engine counts as many received
// as were sent, and no more than one datagram per ioBatch envelopes
// carried them.
func TestBundleOnePeer(t *testing.T) {
	const fanout = 3*ioBatch + 5
	writePaths(t, "127.0.0.1:0", func(t *testing.T, a *UDPNode) {
		r := sink(t, "udp4", "127.0.0.1:0")
		if err := a.AddPeer("r", r.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		inBatch(a, func() {
			for i := 1; i <= ioBatch; i++ {
				a.send("r", testEnvelope(uint64(i)), 0)
				if calls, want := a.TransportStats().SendCalls, int64(i/ioBatch); calls != want {
					t.Fatalf("%d write calls after %d envelopes queued, want %d", calls, i, want)
				}
			}
		})
		got := readEnvelopes(t, r, ioBatch)
		for i, env := range got {
			if env.SrcTupleID != uint64(i+1) || env.Src != "a" {
				t.Fatalf("envelope %d = %+v", i, env)
			}
		}

		install(t, a.Node(), `
materialize(item, infinity, infinity, keys(1,2)).
f1 hello@Peer(N, I) :- go@N(Peer), item@N(I).
`)
		b := udpNode(t, "b", "127.0.0.1:0")
		install(t, b.Node(), heardProgram)
		if err := a.AddPeer("b", b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fanout; i++ {
			a.Node().SeedLocal(tuple.New("item", tuple.Str("a"), tuple.Int(int64(i))))
		}
		b.Start()
		before := a.TransportStats().DatagramsSent
		inBatch(a, func() { a.Node().HandleLocal(tuple.New("go", tuple.Str("a"), tuple.Str("b"))) })
		if sent := a.Node().Metrics().MsgsSent; sent != fanout {
			t.Fatalf("a sent %d envelopes, want %d", sent, fanout)
		}
		eventually(t, "every envelope to arrive", func() bool { return b.MetricsSnapshot().Node.MsgsRecv == fanout })
		datagrams := a.TransportStats().DatagramsSent - before
		if datagrams > (fanout+ioBatch-1)/ioBatch {
			t.Errorf("%d datagrams carried %d envelopes, want at most one per %d", datagrams, fanout, ioBatch)
		}
		if got := b.TransportStats().DatagramsProcessed; got != datagrams {
			t.Errorf("b processed %d datagrams, a sent %d", got, datagrams)
		}
		heard := 0
		b.exec.do(func() { b.Node().Store().Get("heard").Scan(1e12, func(tuple.Tuple) { heard++ }) })
		if heard != fanout {
			t.Errorf("b holds %d heard rows, want %d", heard, fanout)
		}
	})
}

// TestBundleSizeBound: envelopes totalling several kilobytes are split
// so that no datagram exceeds the bound, min(maxBundle, MaxDatagram),
// each bundle taking as many as fit; an envelope larger than the bound
// goes alone, and the bundles around it keep their order.
func TestBundleSizeBound(t *testing.T) {
	for _, tc := range []struct {
		maxDatagram, bound, perBundle int
	}{
		// A 200-byte tuple is a 203-byte record behind a 10-byte header.
		{0, maxBundle, 7},
		{512, 512, 2},
	} {
		u, err := NewUDPNode(UDPNodeConfig{Addr: "a", Listen: "127.0.0.1:0", MaxDatagram: tc.maxDatagram})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Stop)
		r := sink(t, "udp4", "127.0.0.1:0")
		if err := u.AddPeer("r", r.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		small, big := bytes.Repeat([]byte("s"), 200), bytes.Repeat([]byte("B"), 3000)
		var sizes []int
		inBatch(u, func() {
			for i := 1; i <= 21; i++ {
				env := testEnvelope(uint64(i))
				env.Raw = small
				if i == 11 {
					env.Raw = big
				}
				u.send("r", env, 0)
				sizes = append(sizes, len(env.Raw))
			}
		})
		// Ten small envelopes, the big one, ten small ones.
		want := 2*((10+tc.perBundle-1)/tc.perBundle) + 1
		if s := u.TransportStats(); s.DatagramsSent != int64(want) {
			t.Errorf("MaxDatagram %d: %d datagrams, want %d", tc.maxDatagram, s.DatagramsSent, want)
		}
		next := 1
		for _, d := range readDatagrams(t, r, want) {
			if len(d.envs) == 1 && len(d.envs[0].Raw) == len(big) {
				if d.size <= tc.bound {
					t.Errorf("MaxDatagram %d: the big envelope's datagram is %d bytes", tc.maxDatagram, d.size)
				}
			} else if d.size > tc.bound || len(d.envs) > tc.perBundle {
				t.Errorf("MaxDatagram %d: a %d-byte datagram of %d envelopes, bound %d", tc.maxDatagram, d.size, len(d.envs), tc.bound)
			}
			for _, env := range d.envs {
				if env.SrcTupleID != uint64(next) || len(env.Raw) != sizes[next-1] {
					t.Fatalf("MaxDatagram %d: envelope %d of %d bytes arrived as number %d", tc.maxDatagram, env.SrcTupleID, len(env.Raw), next)
				}
				next++
			}
		}
	}
}

// TestBundleInterleavedPeers: only a send to the newest datagram's peer
// joins it. Sends to a, a, b, a, a in one batch are three datagrams —
// a's first two, b's, a's last two — and each peer gets its envelopes in
// order.
func TestBundleInterleavedPeers(t *testing.T) {
	writePaths(t, "127.0.0.1:0", func(t *testing.T, u *UDPNode) {
		ra, rb := sink(t, "udp4", "127.0.0.1:0"), sink(t, "udp4", "127.0.0.1:0")
		for name, r := range map[string]*net.UDPConn{"ra": ra, "rb": rb} {
			if err := u.AddPeer(name, r.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		inBatch(u, func() {
			for i, dst := range []string{"ra", "ra", "rb", "ra", "ra"} {
				u.send(dst, testEnvelope(uint64(i+1)), 0)
			}
		})
		if s := u.TransportStats(); s.DatagramsSent != 3 {
			t.Errorf("DatagramsSent = %d, want 3", s.DatagramsSent)
		}
		ids := func(d datagram) (out []uint64) {
			for _, env := range d.envs {
				out = append(out, env.SrcTupleID)
			}
			return out
		}
		da := readDatagrams(t, ra, 2)
		db := readDatagrams(t, rb, 1)
		if got := fmt.Sprint(ids(da[0]), ids(da[1]), ids(db[0])); got != "[1 2] [4 5] [3]" {
			t.Errorf("a received two datagrams and b one: %s, want [1 2] [4 5] [3]", got)
		}
	})
}

// TestBundleBadFraming: a datagram whose records do not tile it is
// dropped whole — one DropDecode, none of its records run — whether a
// record is cut short, claims 2^64-1 bytes, has a bad varint, or there
// is no record at all. A record whose tuple bytes do not decode is the
// engine's to report; the records after it still run.
func TestBundleBadFraming(t *testing.T) {
	hello := func(x int64) []byte {
		return tuple.Marshal(nil, tuple.New("hello", tuple.Str("b"), tuple.Str("a"), tuple.Int(x)))
	}
	// Clipped, so that appending to them copies.
	header := slices.Clip(appendHeader(nil, "a", 1))
	good := slices.Clip(appendRecord(appendRecord(header, 1, hello(1)), 2, hello(2)))
	bad := map[string][]byte{
		"last record cut short": appendRecord(good, 3, hello(3))[:len(good)+5],
		"rawLen 2^64-1":         append(append(good, 3), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"bad varint":            append(good, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"no records":            header,
	}
	for name, d := range bad {
		if _, _, _, err := decodeDatagram(nil, d); err == nil {
			t.Errorf("%s: decodes", name)
		}
	}

	var ruleErrors []string
	b, err := NewUDPNode(UDPNodeConfig{Addr: "b", Listen: "127.0.0.1:0",
		OnRuleError: func(_ float64, rule string, _ error) { ruleErrors = append(ruleErrors, rule) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	install(t, b.Node(), heardProgram)
	b.Start()
	c, err := net.Dial("udp", b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The datagram that frames well comes last, so once its three
	// records have run every datagram before it has been read.
	for _, d := range [][]byte{bad["last record cut short"], bad["no records"],
		appendRecord(appendRecord(appendRecord(header, 4, hello(4)), 5, []byte{0xff, 0x01}), 6, hello(6))} {
		if _, err := c.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the well-framed datagram to run", func() bool { return b.MetricsSnapshot().Node.MsgsRecv == 3 })
	if s := b.TransportStats(); s.DropDecode != 2 || s.DatagramsRecv != 3 || s.DatagramsProcessed != 1 {
		t.Errorf("transport stats %+v, want 2 dropped undecodable of 3 received, 1 processed", s)
	}
	var heard []int64
	b.exec.do(func() {
		b.Node().Store().Get("heard").Scan(1e12, func(row tuple.Tuple) { heard = append(heard, row.Field(2).AsInt()) })
		if len(ruleErrors) != 1 || ruleErrors[0] != "net" {
			t.Errorf("rule errors %v, want one from net", ruleErrors)
		}
	})
	if len(heard) != 2 || heard[0]+heard[1] != 4+6 {
		t.Errorf("heard %v, want the records 4 and 6", heard)
	}
}

// TestDatagramObservesEachEnvelope: the executor runs a datagram's
// records as the envelopes they would be alone, so each is counted
// received and observed in QueueWait and HopLatency: the histograms
// count envelopes, not datagrams.
func TestDatagramObservesEachEnvelope(t *testing.T) {
	e := udpNode(t, "a", "127.0.0.1:0").exec
	var recs []byte
	for i := uint64(1); i <= 3; i++ {
		recs = appendRecord(recs, i, tuple.Marshal(nil, tuple.New("ev", tuple.Str("a"), tuple.Int(int64(i)))))
	}
	now := time.Now()
	e.runOne(&task{at: now, sent: now.Add(-time.Millisecond).UnixNano(), kind: taskDatagram,
		env: engine.Envelope{Src: "b", Raw: recs}}, now, now.UnixNano(), 1)
	h, m := e.node.Hists(), e.node.Metrics()
	if m.MsgsRecv != 3 || h.QueueWait.Count() != 3 || h.HopLatency.Count() != 3 {
		t.Errorf("3 records: %d received, %d queue waits and %d hops observed", m.MsgsRecv, h.QueueWait.Count(), h.HopLatency.Count())
	}
	if s := e.stats.snapshot(); s.DatagramsProcessed != 1 {
		t.Errorf("DatagramsProcessed = %d, want 1", s.DatagramsProcessed)
	}
}
