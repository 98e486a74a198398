package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"p2go/internal/engine"
)

// Fuzz op codes (op%8): a message lands, the previous message's bytes
// land again, another task is queued, the head task starts (opPop, then
// trims a drained inbox as kick does; opPopOnly does not), the host
// crashes, the clock moves.
const (
	opMessage = 0 // 0-1: [op srcSel idSel sizeHi sizeLo atOff], idSel 8 (mod 9) adds 8 id bytes; see payloadSize
	opRepeat  = 2 // [op srcSel deltaSel atOff], srcSel 7 (mod 8) the previous message's sender; its ID moves by fuzzDeltas[deltaSel]
	opTask    = 3 // [op kindSel atOff]
	opPop     = 4
	opPopOnly = 5
	opCrash   = 6
	opTick    = 7 // [op dt]
)

// fuzzSrcs are the sender indexes a record may name: both sides of the
// one-to-two-byte uvarint boundary.
var fuzzSrcs = []int{0, 1, 2, 126, 127, 128, 129}

var fuzzIDs = []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, 1 << 63, math.MaxUint64}

// fuzzDeltas are the ID steps of a repeated message: none, the +1 of
// Chord's lookups, a large jump, one that wraps past MaxUint64 from any ID
// from 1<<63 on, and −1.
var fuzzDeltas = []uint64{0, 1, 1 << 40, 1<<63 + 1, math.MaxUint64}

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

// bigPayload marks a message op's size bytes as a payload about one
// chunk long: a size field of bigPayload+k, k < 256, is a payload of
// inboxChunk-128+k bytes, so records just under, exactly at and over a
// chunk's length are one op away (and one random op in 256 is one of
// them). Any other size field is a payload of field%601 bytes (0-600 B,
// across maxKeptRaw and the uvarint boundaries).
const bigPayload = 0xFF00

func payloadSize(field int) int {
	if field >= bigPayload {
		return inboxChunk - 128 + field - bigPayload
	}
	return field % 601
}

// msgOp and friends build fuzz inputs for the seed corpus. size is a
// payload length: up to 600 B, or within 128 B of inboxChunk.
func msgOp(src, size int, idSel byte) []byte {
	field := size
	if size > 600 {
		field = size - (inboxChunk - 128) + bigPayload
	}
	return []byte{opMessage, byte(src), idSel, byte(field >> 8), byte(field), 0}
}

// sameSrc is the repeat op's srcSel for the previous message's sender.
const sameSrc = 7

func repOp(src int, deltaSel byte) []byte { return []byte{opRepeat, byte(src), deltaSel, 0} }

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// recordLen is the length of a message record with a payload of size
// bytes from fuzzSrcs[src] with id fuzzIDs[idSel].
func recordLen(src, size int, idSel byte) int {
	return 9 + uvarintLen(uint64(fuzzSrcs[src])) + uvarintLen(fuzzIDs[idSel]) + uvarintLen(uint64(size)) + size
}

// reservation is the room pushMessage or pushTask reserved for the
// record at the start of c.
func reservation(c []byte) int {
	if c[0] == recTask {
		return 9
	}
	i := 9
	for range 2 {
		_, k := binary.Uvarint(c[i:])
		i += k
	}
	size, _ := binary.Uvarint(c[i:])
	return 9 + 3*binary.MaxVarintLen64 + int(size)
}

// exactFillOps returns the ops that queue 600-byte payloads until the
// queue has chained a chunk, and then fill that chunk to its last byte
// with a message and 9-byte task records, planned against a scratch
// inbox's layout.
func exactFillOps() []byte {
	var q inbox
	var ops [][]byte
	push := func(size int) {
		raw := make([]byte, size)
		raw[0] = byte(len(ops)) // no repeat of the message before, as in the fuzz
		q.pushMessage(0, fuzzSrcs[0], fuzzIDs[0], raw)
		ops = append(ops, msgOp(0, size, 0))
	}
	for q.next == nil {
		push(600)
	}
	for q.room() > 9+3*binary.MaxVarintLen64+600 {
		push(min(600, q.room()-400)) // leaves 387 bytes or more
	}
	left := q.room()
	size := left - 9 - 3*binary.MaxVarintLen64 // the largest payload with room reserved
	for (left-recordLen(0, size, 0))%9 != 0 {
		size--
	}
	push(size)
	for q.room() > 0 {
		q.pushTask(0, sweep{})
		ops = append(ops, []byte{opTask, 0, 0})
	}
	if len(q.next) != 1 {
		panic(fmt.Sprintf("exact fill planned over %d chained chunks", len(q.next)))
	}
	return bytes.Join(ops, nil)
}

// heldAdvanceOps returns the ops that queue distinct 600-byte payloads
// until the queue has chained a chunk, then a 37-byte message and its
// repeats until that chunk has no room for another, then tasks until
// one starts the next chunk and 299 more, planned against a scratch
// inbox's layout. Popped, the chain advances to that chunk while the
// 37-byte raw is held in the one before.
func heldAdvanceOps() []byte {
	var q inbox
	var ops [][]byte
	for q.next == nil {
		raw := make([]byte, 600)
		raw[0] = byte(len(ops))
		q.pushMessage(0, fuzzSrcs[0], fuzzIDs[0], raw)
		ops = append(ops, msgOp(0, 600, 0))
	}
	a := make([]byte, 37)
	q.pushMessage(0, fuzzSrcs[1], fuzzIDs[1], a)
	ops = append(ops, msgOp(1, len(a), 1))
	for id := fuzzIDs[1] + 1; q.room() >= 9+3*binary.MaxVarintLen64+len(a); id++ {
		q.pushMessage(0, fuzzSrcs[1], id, a)
		ops = append(ops, repOp(sameSrc, 1))
	}
	for tasks := 0; tasks < 300; {
		q.pushTask(0, sweep{})
		ops = append(ops, []byte{opTask, 0, 0})
		if len(q.next) == 2 {
			tasks++
		}
	}
	return bytes.Join(ops, nil)
}

// chunks returns the inbox's chunks, oldest first.
func (q *inbox) chunks() [][]byte { return append([][]byte{q.buf}, q.next...) }

// room is the free bytes of the newest chunk.
func (q *inbox) room() int {
	c := q.chunks()[len(q.next)]
	return cap(c) - len(c)
}

// heldBytes is the capacity of the inbox's chunks, and live what of it
// holds unconsumed records.
func (q *inbox) heldBytes() (held, live int) {
	for _, c := range q.chunks() {
		held += cap(c)
		live += len(c)
	}
	return held, live - q.head
}

func seedOps(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func repeatOp(op []byte, n int) []byte { return bytes.Repeat(op, n) }

// FuzzRunQueue: a host's inbox starts tasks in the order, with the
// envelopes (Src, SrcTupleID, byte-exact Raw) and the queue-wait and
// depth observations, of the run queue it replaced (runqueueref_test.go),
// under any interleaving of message arrivals (see payloadSize), arrivals
// of the previous message's bytes again (from its sender or another, see
// fuzzDeltas), other tasks, task starts and crashes. No chunk is longer
// than inboxChunk unless its first record reserved more, and a drained
// inbox keeps one chunk of at most inboxMinCap bytes.
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
	// Chunk edges. A chained chunk filled to its last byte, then the
	// record after it; a record of exactly inboxChunk bytes; records one
	// byte over it, alone and behind a backlog.
	// A payload whose reservation is a chunk, and one a byte longer.
	chunkLong := inboxChunk - (recordLen(0, 0, 0) - uvarintLen(0) + uvarintLen(inboxChunk)) // a payload whose record is inboxChunk bytes
	chunkFit := inboxChunk - 9 - 3*binary.MaxVarintLen64
	f.Add(seedOps(exactFillOps(), msgOp(1, 40, 1), []byte{opTask, 0, 0}, repeatOp(pop, 200)))
	f.Add(seedOps(msgOp(0, chunkLong, 0), msgOp(0, 10, 0), msgOp(0, chunkLong, 0), repeatOp(pop, 3)))
	f.Add(seedOps(msgOp(2, chunkFit, 1), []byte{opTask, 1, 0}, msgOp(0, chunkFit+1, 0), repeatOp([]byte{opTask, 2, 0}, 4),
		pop, msgOp(5, chunkFit, 3), repeatOp(pop, 7)))
	f.Add(seedOps(msgOp(0, chunkLong+1, 0), pop, msgOp(6, 600, 7),
		repeatOp(msgOp(3, 300, 2), 150), msgOp(0, chunkLong+1, 0), msgOp(2, 50, 1), repeatOp(pop, 160)))
	// A backlog of many chunks drained, refilled and drained again.
	f.Add(seedOps(repeatOp(msgOp(4, 600, 5), 500), repeatOp(seedOps(pop, pop, msgOp(1, 37, 4)), 250),
		repeatOp(pop, 300), repeatOp(msgOp(5, 450, 6), 400), []byte{opTask, 2, 0}, repeatOp(pop, 420)))
	// A crash in the middle of a chain, and a chain built after it.
	f.Add(seedOps(repeatOp(msgOp(3, 599, 2), 300), []byte{opTask, 3, 0}, repeatOp(pop, 130), []byte{opCrash},
		repeatOp(msgOp(1, 500, 3), 200), repeatOp(pop, 210)))
	// Repeats from the same sender: each ID delta, from 1<<63 (the wrap
	// step wraps) and from 0 (−1 wraps), an empty payload, a task between.
	// A drained 600-byte message first leaves a chunk they all fit in.
	same := func(d byte) []byte { return repOp(sameSrc, d) }
	roomy := seedOps(msgOp(0, 600, 0), pop)
	f.Add(seedOps(roomy, msgOp(1, 40, 7), same(0), same(1), same(2), same(3), same(4), []byte{opTask, 0, 0}, same(1),
		msgOp(2, 0, 0), same(4), same(1), repeatOp(pop, 10)))
	// The same bytes from another sender, and back: full records.
	f.Add(seedOps(roomy, msgOp(1, 40, 1), repOp(2, 1), repOp(1, 1), same(1), repOp(6, 0), same(0), repeatOp(pop, 6)))
	// A drain, as the pop leaves it and trimmed, and a crash, between a
	// message and its repeat.
	popOnly := []byte{opPopOnly}
	f.Add(seedOps(msgOp(3, 37, 1), popOnly, same(1), same(1), pop, popOnly, same(1), popOnly,
		msgOp(4, 37, 1), same(1), []byte{opCrash}, same(1), same(1), pop, pop))
	// A chain advance with the popped raw held: the last chunk, lone
	// again, compacts before its first message is popped.
	f.Add(seedOps(heldAdvanceOps(), repeatOp(same(1), 20), repeatOp(pop, 2000)))
	// A lone chunk compacted in place at a task start while the popped
	// raw is held, then overwritten by later records before the rest of
	// its repeats are read.
	f.Add(seedOps(repeatOp(msgOp(3, 500, 1), 5), msgOp(4, 40, 1), repeatOp(same(1), 100), repeatOp(pop, 7),
		repeatOp(same(1), 300), repeatOp(pop, 400)))
	// A queue holding a depth of 300 records, so a full lone chunk
	// compacts in place as a message is pushed, with the popped raw held.
	f.Add(seedOps(msgOp(4, 60, 1), repeatOp(same(1), 299), repeatOp(seedOps(msgOp(4, 60, 1), repeatOp(same(1), 20), repeatOp(pop, 21)), 40),
		repeatOp(pop, 300)))
	payload := make([]byte, inboxChunk+128) // the fuzz function runs one input at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		hosts := make([]*host, fuzzSrcs[len(fuzzSrcs)-1]+1)
		net := new(Network)
		for i := range hosts {
			hosts[i] = &host{idx: i, addr: fmt.Sprintf("h%d", i), net: net}
		}
		r := opReader{data}
		var q inbox
		var ref refQueue
		now, seq := 0.0, 0
		// The previous message: a repeat op lands payload[:size] again.
		src, id, size := hosts[0], uint64(0), 0
		for r.more() {
			switch op := r.next() % 8; op {
			case opMessage, opMessage + 1, opRepeat:
				if op == opRepeat {
					if sel := int(r.next()) % (len(fuzzSrcs) + 1); sel != sameSrc {
						src = hosts[fuzzSrcs[sel]]
					}
					id += fuzzDeltas[int(r.next())%len(fuzzDeltas)]
				} else {
					src = hosts[fuzzSrcs[int(r.next())%len(fuzzSrcs)]]
					id = fuzzIDs[int(r.next())%len(fuzzIDs)]
					if id == math.MaxUint64 {
						var b [8]byte
						for i := range b {
							b[i] = r.next()
						}
						id = binary.LittleEndian.Uint64(b[:])
					}
					size = payloadSize(int(r.next())<<8 | int(r.next()))
					seq++
					for i := range payload[:size] {
						payload[i] = byte(seq*31 + i)
					}
				}
				at := r.at(now)
				env := engine.Envelope{Src: src.addr, SrcTupleID: id, Raw: payload[:size]}
				ref.refDeliver(src, env, now, at)
				// What deliver and message.fire do now.
				m := src.net.newMessage()
				*m = message{src: src, id: env.SrcTupleID, raw: append(m.raw, env.Raw...), sent: now}
				q.pushMessage(at, m.src.idx, m.id, m.raw)
				src.net.release(m)
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
			case opPop, opPopOnly:
				if q.n > 0 {
					popBoth(t, &q, &ref, hosts, now, op == opPop)
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
			for i, c := range q.chunks() {
				if cap(c) > inboxChunk && reservation(c) != cap(c) {
					t.Fatalf("chunk %d of %d has %d bytes, not the %d its first record reserved", i, len(q.next)+1, cap(c), reservation(c))
				}
			}
		}
		for q.n > 0 {
			popBoth(t, &q, &ref, hosts, now, false)
		}
		q.trim()
		if len(ref.queue) != ref.qhead {
			t.Fatalf("reference still queues %d tasks", len(ref.queue)-ref.qhead)
		}
		if len(q.buf) != 0 || len(q.next) != 0 || q.head != 0 || len(q.side) != 0 || cap(q.buf) > inboxMinCap {
			t.Fatalf("drained inbox keeps %d bytes (head %d, cap %d), %d more chunks and %d other tasks",
				len(q.buf), q.head, cap(q.buf), len(q.next), len(q.side))
		}
	})
}

// popBoth starts the head task of both queues at now, as kick does, and
// compares what each starts and observes. With trim, a drained inbox is
// trimmed after the task, as kick does; without, the next push finds it
// as the pop left it.
func popBoth(t *testing.T, q *inbox, ref *refQueue, hosts []*host, now float64, trim bool) {
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
		m.src.net.release(m)
	} else if e.do != rt.do {
		t.Fatalf("inbox started %T %p, reference %T %p", e.do, e.do, rt.do, rt.do)
	}
	if trim && q.n == 0 {
		q.trim()
	}
}
