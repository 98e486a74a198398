package realtime

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

func TestDatagramRoundTrip(t *testing.T) {
	raw := tuple.Marshal(nil, tuple.New("x", tuple.Str("n1"), tuple.Int(7)))
	env := engine.Envelope{Src: "n2", SrcTupleID: 42, Raw: raw}
	const stamp = int64(1234567890123456789)
	got, sent, err := decodeDatagram(appendDatagram(nil, env, stamp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != "n2" || got.SrcTupleID != 42 || len(got.Raw) != len(raw) || sent != stamp {
		t.Errorf("round trip = %+v sent=%d", got, sent)
	}
	// Truncations anywhere in the frame fail cleanly (the tuple payload
	// itself is validated by the engine's decode, not here).
	enc := appendDatagram(nil, env, stamp)
	header := 1 + len(env.Src) + sentNanosLen + 1 // srcLen varint + src + stamp + id varint
	for cut := 0; cut < header; cut++ {
		if _, _, err := decodeDatagram(enc[:cut]); err == nil {
			t.Errorf("truncation to %d must fail", cut)
		}
	}
	// A source length of 2^64-1 is -1 as an int: it must fail the bound,
	// not pass it and slice out of range on the reader goroutine.
	if _, _, err := decodeDatagram(hugeSrcLenDatagram); err == nil {
		t.Error("source length 2^64-1 must fail")
	}
}

// hugeSrcLenDatagram claims a 2^64-1 byte source address.
var hugeSrcLenDatagram = append(binary.AppendUvarint(nil, ^uint64(0)), make([]byte, 32)...)

// FuzzDatagram: the frame is bytes off the network, so decodeDatagram
// never panics on arbitrary input and whatever it accepts re-frames to
// the same envelope; and any envelope appendDatagram frames decodes back
// to its Src, stamp, SrcTupleID and Raw.
func FuzzDatagram(f *testing.F) {
	f.Add(hugeSrcLenDatagram, "n2", int64(1), uint64(1))
	f.Add(appendDatagram(nil, engine.Envelope{Src: "n2", SrcTupleID: 42, Raw: []byte("raw")}, 1234567890123456789),
		"", int64(-1), ^uint64(0))
	f.Add([]byte{}, "a longer source address than most", int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, src string, stamp int64, id uint64) {
		if env, sent, err := decodeDatagram(data); err == nil {
			env2, sent2, err := decodeDatagram(appendDatagram(nil, env, sent))
			if err != nil || env2.Src != env.Src || env2.SrcTupleID != env.SrcTupleID ||
				sent2 != sent || !bytes.Equal(env2.Raw, env.Raw) {
				t.Fatalf("accepted frame does not re-frame: %+v/%d then %+v/%d (%v)", env, sent, env2, sent2, err)
			}
		}
		env := engine.Envelope{Src: src, SrcTupleID: id, Raw: data}
		got, sent, err := decodeDatagram(appendDatagram(nil, env, stamp))
		if err != nil || got.Src != src || got.SrcTupleID != id || sent != stamp || !bytes.Equal(got.Raw, data) {
			t.Fatalf("round trip of %+v/%d = %+v/%d (%v)", env, stamp, got, sent, err)
		}
	})
}

// TestUDPPairPing: two nodes on real loopback UDP sockets exchange
// tuples driven by the same OverLog that runs under the simulator.
func TestUDPPairPing(t *testing.T) {
	prog := overlog.MustParse(`
materialize(heard, infinity, infinity, keys(1,2)).
g1 hello@Peer(N, X) :- say@N(Peer, X).
g2 heard@N(From, X) :- hello@N(From, X).
`)
	mk := func(addr string) *UDPNode {
		u, err := NewUDPNode(UDPNodeConfig{
			Addr: addr, Listen: "127.0.0.1:0", Seed: 1,
		})
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
	if err := b.AddPeer("a", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	if err := a.Inject(tuple.New("say", tuple.Str("a"), tuple.Str("b"), tuple.Int(99))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		// Reading the node concurrently is not allowed; ask via a probe
		// tuple instead: stop-the-world check after a grace period.
		time.Sleep(50 * time.Millisecond)
		if heardOnB(b) {
			return
		}
	}
	t.Fatal("b never heard a's message over UDP")
}

// heardOnB stops b's executor briefly by piggybacking a read task.
func heardOnB(b *UDPNode) bool {
	res := make(chan bool, 1)
	err := b.Inject(tuple.New("nopQuery", tuple.Str("b")))
	if err != nil {
		return false
	}
	// The injection above serializes behind any pending work; now read
	// through another task to stay on the executor goroutine.
	select {
	case b.exec.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() {
		n := 0
		tb := b.exec.node.Store().Get("heard")
		tb.Scan(1e12, func(tuple.Tuple) { n++ })
		res <- n > 0
	}}:
	case <-b.exec.done:
		return false
	}
	select {
	case v := <-res:
		return v
	case <-time.After(time.Second):
		return false
	}
}
