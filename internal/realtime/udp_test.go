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
	enc := appendDatagram(nil, env, stamp)
	src, sent, recs, err := decodeDatagram(enc)
	if err != nil {
		t.Fatal(err)
	}
	id, got, rest, ok := nextRecord(recs)
	if src != "n2" || sent != stamp || !ok || id != 42 || !bytes.Equal(got, raw) || len(rest) != 0 {
		t.Errorf("round trip = %s/%d, record %d %x, %d bytes left", src, sent, id, got, len(rest))
	}
	// Every record is length-prefixed, so a cut anywhere, in the header
	// or in the tuple bytes, fails the framing check.
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := decodeDatagram(enc[:cut]); err == nil {
			t.Errorf("truncation to %d of %d bytes must fail", cut, len(enc))
		}
	}
	// A source length of 2^64-1 is -1 as an int: it must fail the bound,
	// not pass it and slice out of range on the reader goroutine.
	if _, _, _, err := decodeDatagram(hugeSrcLenDatagram); err == nil {
		t.Error("source length 2^64-1 must fail")
	}
}

// hugeSrcLenDatagram claims a 2^64-1 byte source address.
var hugeSrcLenDatagram = append(binary.AppendUvarint(nil, ^uint64(0)), make([]byte, 32)...)

// record is one envelope record of a datagram.
type record struct {
	id  uint64
	raw []byte
}

// frameRecords frames a datagram of records.
func frameRecords(src string, stamp int64, recs []record) []byte {
	b := appendHeader(nil, src, stamp)
	for _, r := range recs {
		b = appendRecord(b, r.id, r.raw)
	}
	return b
}

// splitRecords lists a checked run of records.
func splitRecords(recs []byte) []record {
	var out []record
	for len(recs) > 0 {
		id, raw, rest, _ := nextRecord(recs)
		out = append(out, record{id, raw})
		recs = rest
	}
	return out
}

func sameRecords(a, b []record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || !bytes.Equal(a[i].raw, b[i].raw) {
			return false
		}
	}
	return true
}

// seedRecords is n records of a few bytes each, IDs from 1.
func seedRecords(n int) []record {
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{uint64(i + 1), bytes.Repeat([]byte{byte(i)}, i%5)}
	}
	return recs
}

// FuzzDatagram: the datagram is bytes off the network, so decodeDatagram
// never panics on arbitrary input, and whatever it accepts re-frames to
// the same header and records; and any header and list of records
// framed decodes back unchanged. The framed list is data cut into
// 1+n%32 records, IDs counting up from id. recordLen, which the size
// bound rests on, is the length appendRecord writes.
func FuzzDatagram(f *testing.F) {
	f.Add(hugeSrcLenDatagram, "n2", int64(1), uint64(1), uint8(0))
	f.Add(appendDatagram(nil, engine.Envelope{Src: "n2", SrcTupleID: 42, Raw: []byte("raw")}, 1234567890123456789),
		"", int64(-1), ^uint64(0), uint8(1))
	f.Add([]byte{}, "a longer source address than most", int64(0), uint64(0), uint8(31))
	for _, n := range []int{1, 2, 32} {
		f.Add(frameRecords("n2", 7, seedRecords(n)), "a", int64(7), uint64(1), uint8(n-1))
	}
	two := frameRecords("n2", 7, seedRecords(2))
	f.Add(two[:len(two)-1], "a", int64(7), uint64(1), uint8(1)) // the last record cut short
	hugeRawLen := binary.AppendUvarint(binary.AppendUvarint(appendHeader(nil, "n2", 7), 1), ^uint64(0))
	f.Add(append(hugeRawLen, "some bytes"...), "a", int64(7), uint64(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, src string, stamp int64, id uint64, n uint8) {
		if src, sent, recs, err := decodeDatagram(data); err == nil {
			list := splitRecords(recs)
			src2, sent2, recs2, err := decodeDatagram(frameRecords(src, sent, list))
			if err != nil || src2 != src || sent2 != sent || !sameRecords(splitRecords(recs2), list) {
				t.Fatalf("accepted datagram %x does not re-frame: %s/%d %v, then %s/%d (%v)", data, src, sent, list, src2, sent2, err)
			}
		}
		if got := len(appendRecord(nil, id, data)); got != recordLen(id, data) {
			t.Fatalf("record of ID %d and %d bytes is %d bytes, recordLen says %d", id, len(data), got, recordLen(id, data))
		}
		list := make([]record, 1+int(n)%32)
		for i := range list {
			list[i] = record{id + uint64(i), data[i*len(data)/len(list) : (i+1)*len(data)/len(list)]}
		}
		got, sent, recs, err := decodeDatagram(frameRecords(src, stamp, list))
		if err != nil || got != src || sent != stamp || !sameRecords(splitRecords(recs), list) {
			t.Fatalf("round trip of %q/%d %v = %q/%d (%v)", src, stamp, list, got, sent, err)
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
