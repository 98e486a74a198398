package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"p2go/internal/engine"
)

// Fuzz op codes (op%8): a message lands, another task is queued, the
// head task starts, the host crashes, the clock moves.
const (
	opMessage = 0 // 0-2: [op srcSel idSel sizeHi sizeLo atOff], idSel 8 (mod 9) adds 8 id bytes
	opTask    = 3 // [op kindSel atOff]
	opPop     = 4 // 4-5
	opCrash   = 6
	opTick    = 7 // [op dt]
)

// fuzzSrcs are the sender indexes a record may name: both sides of the
// one-to-two-byte uvarint boundary.
var fuzzSrcs = []int{0, 1, 2, 126, 127, 128, 129}

var fuzzIDs = []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, 1 << 63, math.MaxUint64}

type opReader struct{ data []byte }

func (r *opReader) more() bool { return len(r.data) > 0 }

func (r *opReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) at(now float64) float64 { return now + float64(int8(r.next()))/8 }

// msgOp and friends build fuzz inputs for the seed corpus.
func msgOp(src, size int, idSel byte) []byte {
	return []byte{opMessage, byte(src), idSel, byte(size >> 8), byte(size), 0}
}

func seedOps(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func repeatOp(op []byte, n int) []byte { return bytes.Repeat(op, n) }

// FuzzRunQueue: a host's inbox starts tasks in the order, with the
// envelopes (Src, SrcTupleID, byte-exact Raw) and the queue-wait and
// depth observations, of the run queue it replaced (runqueueref_test.go),
// under any interleaving of message arrivals (0-600 B payloads, across
// maxPooledRaw and the uvarint boundaries), other tasks, task starts and
// crashes.
func FuzzRunQueue(f *testing.F) {
	pop := []byte{opPop}
	f.Add([]byte{})
	f.Add(seedOps(msgOp(0, 0, 0), msgOp(3, 127, 2), msgOp(4, 128, 3), msgOp(5, 256, 5), msgOp(6, 257, 8),
		[]byte{1, 2, 3, 4, 5, 6, 7, 8}, msgOp(1, 600, 7), repeatOp(pop, 6)))
	f.Add(seedOps([]byte{opTask, 0, 0}, msgOp(1, 40, 1), []byte{opTask, 2, 0}, []byte{opTask, 3, 0},
		msgOp(2, 37, 4), []byte{opTick, 9}, pop, []byte{opTask, 1, 0x80}, repeatOp(pop, 5)))
	// A backlog past the compaction threshold, drained, refilled, drained:
	// compactions in place and into a smaller buffer.
	f.Add(seedOps(repeatOp(msgOp(3, 600, 1), 20), repeatOp(pop, 11), repeatOp(msgOp(4, 90, 6), 5),
		repeatOp(pop, 14), repeatOp(msgOp(5, 300, 7), 40), repeatOp(seedOps(pop, []byte{opTask, 1, 0}), 45)))
	f.Add(seedOps(repeatOp(msgOp(2, 128, 3), 30), repeatOp(pop, 10), []byte{opCrash},
		msgOp(0, 5, 0), repeatOp([]byte{opTask, 3, 0}, 40), repeatOp(pop, 20)))
	f.Fuzz(func(t *testing.T, data []byte) {
		hosts := make([]*host, fuzzSrcs[len(fuzzSrcs)-1]+1)
		for i := range hosts {
			hosts[i] = &host{idx: i, addr: fmt.Sprintf("h%d", i)}
		}
		r := opReader{data}
		var q inbox
		var ref refQueue
		now, seq := 0.0, 0
		var payload [600]byte
		for r.more() {
			switch op := r.next() % 8; op {
			case opMessage, opMessage + 1, opMessage + 2:
				src := hosts[fuzzSrcs[int(r.next())%len(fuzzSrcs)]]
				id := fuzzIDs[int(r.next())%len(fuzzIDs)]
				if id == math.MaxUint64 {
					var b [8]byte
					for i := range b {
						b[i] = r.next()
					}
					id = binary.LittleEndian.Uint64(b[:])
				}
				size := (int(r.next())<<8 | int(r.next())) % (len(payload) + 1)
				seq++
				for i := range payload[:size] {
					payload[i] = byte(seq*31 + i)
				}
				at := r.at(now)
				env := engine.Envelope{Src: src.addr, SrcTupleID: id, Raw: payload[:size]}
				ref.refDeliver(src, env, now, at)
				// What deliver and message.fire do now.
				m := messagePool.Get().(*message)
				*m = message{src: src, id: env.SrcTupleID, raw: append(m.raw, env.Raw...), sent: now}
				q.pushMessage(at, m.src.idx, m.id, m.raw)
				m.release()
			case opTask:
				var do task
				switch r.next() % 4 {
				case 0:
					do = sweep{}
				case 1:
					do = rejoin{}
				case 2:
					do = &localTuple{}
				case 3:
					do = &periodicChain{}
				}
				at := r.at(now)
				ref.enqueue(do, at)
				q.pushTask(at, do)
			case opPop, opPop + 1:
				if q.n > 0 {
					popBoth(t, &q, &ref, hosts, now)
				}
			case opCrash:
				q.reset()
				ref.clearQueue()
			case opTick:
				now += float64(r.next()) / 16
			}
			if live := len(ref.queue) - ref.qhead; q.n != live {
				t.Fatalf("inbox counts %d tasks, reference %d", q.n, live)
			}
		}
		for q.n > 0 {
			popBoth(t, &q, &ref, hosts, now)
		}
		if len(ref.queue) != ref.qhead {
			t.Fatalf("reference still queues %d tasks", len(ref.queue)-ref.qhead)
		}
		if len(q.buf) != 0 || q.head != 0 || len(q.side) != 0 || cap(q.buf) > inboxMinCap {
			t.Fatalf("drained inbox keeps %d bytes (head %d, cap %d) and %d other tasks", len(q.buf), q.head, cap(q.buf), len(q.side))
		}
	})
}

// popBoth starts the head task of both queues at now, as kick does, and
// compares what each starts and observes.
func popBoth(t *testing.T, q *inbox, ref *refQueue, hosts []*host, now float64) {
	t.Helper()
	e, wait, depth := q.pop(now)
	rt, rwait, rdepth := ref.pop(now)
	if depth != rdepth || math.Float64bits(wait) != math.Float64bits(rwait) {
		t.Fatalf("ObserveQueueWait(%v, %d), reference (%v, %d)", wait, depth, rwait, rdepth)
	}
	if m, ok := rt.do.(*message); ok {
		if e.do != nil {
			t.Fatalf("inbox started %T, reference a message", e.do)
		}
		env := engine.Envelope{Src: hosts[e.src].addr, SrcTupleID: e.id, Raw: e.raw}
		if env.Src != m.src.addr || env.SrcTupleID != m.id || !bytes.Equal(env.Raw, m.raw) {
			t.Fatalf("envelope {%s %d % x}, reference {%s %d % x}", env.Src, env.SrcTupleID, env.Raw, m.src.addr, m.id, m.raw)
		}
		m.release()
	} else if e.do != rt.do {
		t.Fatalf("inbox started %T %p, reference %T %p", e.do, e.do, rt.do, rt.do)
	}
	if q.n == 0 {
		q.trim() // kick trims a drained inbox once the task has run
	}
}
