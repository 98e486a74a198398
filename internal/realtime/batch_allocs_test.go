//go:build !race

// The race build's sync.Pool drops a quarter of its Puts on purpose, so
// "the receive buffer comes back" cannot be asserted there.

package realtime

import (
	"net"
	"testing"
	"time"
)

// TestBatchIOAllocsPerSyscall pins what TestReaderAllocsPerDatagram
// cannot see: the recvmmsg and sendmmsg calls themselves. How many
// datagrams one syscall moves is the kernel's choice, so anything
// allocated per syscall becomes run-to-run spread in allocations per
// datagram. Each round is one sendmmsg and the recvmmsg calls that
// collect it.
func TestBatchIOAllocsPerSyscall(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := net.DialUDP("udp", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	pool := newBufPool(2048)
	br, bs := newBatchReader(recv, pool), newBatchSender(send)
	if br == nil || bs == nil {
		t.Skip("no recvmmsg/sendmmsg on this platform")
	}
	// A lost datagram fails the read instead of hanging the test.
	if err := recv.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = []byte("datagram")
	}
	round := func() {
		if n, err := bs.send(frames); n != len(frames) || err != nil {
			t.Fatalf("sent %d of %d: %v", n, len(frames), err)
		}
		for got := 0; got < len(frames); {
			cnt, ok := br.read()
			if !ok {
				t.Fatalf("read failed after %d of %d datagrams", got, len(frames))
			}
			for i := 0; i < cnt; i++ {
				buf, n, trunc := br.take(i)
				if n != len(frames[0]) || trunc {
					t.Fatalf("datagram of %d bytes (truncated %v), sent %d", n, trunc, len(frames[0]))
				}
				pool.put(buf)
			}
			got += cnt
		}
	}
	round() // fills the reader's ioBatch slots from the pool
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("%.0f allocs per sendmmsg+recvmmsg round, want 0", allocs)
	}
}
