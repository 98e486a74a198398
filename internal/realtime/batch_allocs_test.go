//go:build !race

// The race build's sync.Pool drops a quarter of its Puts on purpose, so
// "the receive buffer comes back" cannot be asserted there.

package realtime

import (
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// TestBatchIOAllocsPerSyscall pins what TestReaderAllocsPerDatagram
// cannot see: the recvmmsg call itself. How many datagrams one syscall
// moves is the kernel's choice, so anything allocated per syscall
// becomes run-to-run spread in allocations per datagram. Each round is
// eight datagrams sent and the recvmmsg calls that collect them.
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
	br := newBatchReader(recv, pool)
	if br == nil {
		t.Skip("no recvmmsg on this platform")
	}
	// A lost datagram fails the read instead of hanging the test.
	if err := recv.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const frames = 8
	frame := []byte("datagram")
	round := func() {
		for i := 0; i < frames; i++ {
			if _, err := send.Write(frame); err != nil {
				t.Fatalf("send %d of %d: %v", i, frames, err)
			}
		}
		for got := 0; got < frames; {
			cnt, ok := br.read()
			if !ok {
				t.Fatalf("read failed after %d of %d datagrams", got, frames)
			}
			for i := 0; i < cnt; i++ {
				buf, n, trunc := br.take(i)
				if n != len(frame) || trunc {
					t.Fatalf("datagram of %d bytes (truncated %v), sent %d", n, trunc, len(frame))
				}
				pool.put(buf)
			}
			got += cnt
		}
	}
	round() // fills the reader's ioBatch slots from the pool
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("%.0f allocs per send+recvmmsg round, want 0", allocs)
	}
}

// TestExecutorAllocsPerTask: a task is a value that lives on the
// executor's stack from dequeue to completion. Draining a pre-filled
// queue must allocate exactly what the engine's own handlers do for the
// same messages and events, i.e. the executor adds nothing per task
// (completion as a func(*task) value cost one heap task each).
func TestExecutorAllocsPerTask(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := openNodes(t, UDPNodeConfig{Seed: 1, QueueDepth: taskBatch}, "r1 seen@N(S) :- ev@N(S, P).\n", "a")[0].exec
	ev := tuple.New("ev", tuple.Str("a"), tuple.Int(7), tuple.Str("x"))
	env := engine.Envelope{Src: "b", SrcTupleID: 1, Raw: tuple.Marshal(nil, ev)}
	datagram := engine.Envelope{Src: "b", Raw: appendRecord(nil, env.SrcTupleID, env.Raw)}
	direct := func() {
		for i := 0; i < taskBatch/2; i++ {
			e.node.HandleMessage(env)
			e.node.HandleLocal(ev)
		}
	}
	queued := func() {
		now := time.Now()
		for i := 0; i < taskBatch/2; i++ {
			e.tasks <- task{at: now, sent: now.UnixNano(), kind: taskDatagram, env: datagram}
			e.tasks <- task{at: now, kind: taskLocal, tup: ev}
		}
		e.drainBatch(<-e.tasks)
		if len(e.tasks) != 0 {
			t.Fatalf("%d tasks left after one batch", len(e.tasks))
		}
	}
	direct() // warm the arena and scratch
	queued()
	want := testing.AllocsPerRun(50, direct)
	if got := testing.AllocsPerRun(50, queued); got != want {
		t.Errorf("executor: %v allocs per %d tasks, the handlers alone %v: %v per task added",
			got, taskBatch, want, (got-want)/taskBatch)
	}
}
