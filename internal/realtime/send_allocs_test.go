//go:build !race

// The race build instruments the send path, so its allocation counts
// say nothing about the ordinary build's.

package realtime

import (
	"testing"
)

// TestSendAllocsPerDatagram: once the arena has grown to a batch's
// frames, queueing an envelope and flushing the queue allocate nothing,
// on either write path, whether the envelope joins a bundle or starts a
// datagram. A round is 2*ioBatch-1 envelopes queued under one batch
// clock, alternating between two peers for the first ioBatch (one
// datagram each) and then to one peer (one bundle), so it has a flush
// at ioBatch envelopes and one at the batch end: 0 per round is 0 per
// envelope and 0 per flush.
func TestSendAllocsPerDatagram(t *testing.T) {
	writePaths(t, "127.0.0.1:0", func(t *testing.T, u *UDPNode) {
		peers := [2]string{"r", "s"}
		for _, name := range peers {
			r := sink(t, "udp4", "127.0.0.1:0")
			if err := u.AddPeer(name, r.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		env := testEnvelope(1)
		round := func() {
			inBatch(u, func() {
				for i := 0; i < ioBatch; i++ {
					u.send(peers[i%2], env, 0)
				}
				for i := 0; i < ioBatch-1; i++ {
					u.send("r", env, 0)
				}
			})
		}
		round() // grows the arena
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%v allocs per round of %d envelopes and two flushes, want 0", allocs, 2*ioBatch-1)
		}
		if s := u.TransportStats(); s.DatagramsSent != 102*(ioBatch+1) {
			t.Errorf("DatagramsSent = %d after 102 rounds of %d datagrams", s.DatagramsSent, ioBatch+1)
		}
	})
}
