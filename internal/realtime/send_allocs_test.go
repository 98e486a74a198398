//go:build !race

// The race build instruments the send path, so its allocation counts
// say nothing about the ordinary build's.

package realtime

import (
	"testing"
)

// TestSendAllocsPerDatagram: once the arena has grown to a batch's
// frames, queueing a datagram and flushing the queue allocate nothing,
// on either write path. A round is ioBatch-1 datagrams queued under one
// batch clock and then one flush, so 0 per round is 0 per datagram and
// 0 per flush.
func TestSendAllocsPerDatagram(t *testing.T) {
	writePaths(t, "127.0.0.1:0", func(t *testing.T, u *UDPNode) {
		r := sink(t, "udp4", "127.0.0.1:0")
		if err := u.AddPeer("r", r.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		env := testEnvelope(1)
		round := func() {
			inBatch(u, func() {
				for i := 0; i < ioBatch-1; i++ {
					u.send("r", env, 0)
				}
			})
		}
		round() // grows the arena
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%v allocs per round of %d datagrams and one flush, want 0", allocs, ioBatch-1)
		}
		if s := u.TransportStats(); s.DatagramsSent != 102*(ioBatch-1) {
			t.Errorf("DatagramsSent = %d after 102 rounds of %d", s.DatagramsSent, ioBatch-1)
		}
	})
}
