package simnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/rng"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// Config configures a simulated network.
type Config struct {
	// Seed drives every random choice (delays, loss, node RNGs), making
	// runs reproducible.
	Seed int64
	// MinDelay and MaxDelay bound the uniformly sampled one-way message
	// latency in seconds. Defaults: 5-25 ms.
	MinDelay, MaxDelay float64
	// LossProb drops each message independently with this probability.
	LossProb float64
	// SweepInterval is how often each node expires soft state; default
	// 1 s of virtual time.
	SweepInterval float64
	// Tracing, when non-nil, enables execution logging on every node.
	Tracing *trace.Config
	// TraceStore, when non-nil, gives every traced node a
	// durable append-only trace store (requires Tracing; see
	// engine.Config.TraceStore).
	TraceStore *tracestore.Config
	// OnWatch and OnRuleError hook watched tuples and rule errors; the
	// node address is prepended. A watched tuple is lent, read-only,
	// until OnWatch returns: an observer that keeps or changes it works
	// on t.Clone() (see engine.Config.OnWatch).
	OnWatch     func(now float64, node string, t tuple.Tuple)
	OnRuleError func(now float64, node string, ruleID string, err error)
}

func (c Config) withDefaults() Config {
	if c.MaxDelay == 0 {
		c.MinDelay, c.MaxDelay = 0.005, 0.025
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 1.0
	}
	return c
}

// link is the sender-owned state of one directed link: its private
// delay/loss RNG stream and the FIFO high-water mark. Only the source
// host's execution touches it. The stream is held by value and keeps no
// state until its 607th draw, so a new link is one 24-byte allocation,
// and a link that draws 607 values allocates the stream's vector once.
type link struct {
	rng         rng.Source
	lastArrival float64
}

type host struct {
	net       *Network
	node      *engine.Node
	addr      string
	idx       int // position in net.byIdx; an inbox record names its sender by it
	inbox     inbox
	busyUntil float64
	kickAt    float64 // time of the scheduled kick; <0 when none
	down      bool
	// rng staggers this host's periodic triggers. Deriving it from the
	// host address (not a shared stream) keeps draws independent of the
	// order hosts execute in.
	rng rng.Source
	// links holds outgoing link state, by destination host.
	links map[*host]*link
	// dropped counts messages this host's execution observed as lost
	// (send-side sampling/partition/dead-destination drops, plus
	// arrival-time drops at a down receiver).
	dropped int64
	// faultMsgs counts message-level fault effects (targeted drops,
	// duplication, reordering, delay jitter) this host's execution
	// applied on its outgoing links. Host-owned like dropped.
	faultMsgs metrics.Faults
	// epoch counts process incarnations. Crash bumps it, orphaning
	// every timer chain armed for the previous incarnation; Revive and
	// Rejoin re-arm fresh chains. Only driver-context code writes it.
	epoch uint64
}

// LinkFault is message-level fault state for one directed link (or a
// wildcard set of links): every message the link carries while the
// fault is set is independently dropped with DropProb, duplicated with
// DupProb, exempted from the per-link FIFO clamp with ReorderProb (so
// it may overtake or be overtaken), and delayed by an extra uniform
// [0, ExtraDelay) seconds when ExtraDelay > 0. All randomness comes
// from the sender-owned link RNG stream, so faulty runs stay
// bit-reproducible.
type LinkFault struct {
	DropProb    float64
	DupProb     float64
	ReorderProb float64
	ExtraDelay  float64
}

// IsZero reports whether the fault does nothing.
func (f LinkFault) IsZero() bool { return f == LinkFault{} }

// Network connects engine nodes over the simulator.
type Network struct {
	sim   *Sim
	cfg   Config
	rng   rng.Source // setup-time stream (node seeds); driver context only
	hosts map[string]*host
	byIdx []*host
	// blocked holds severed directed links (partition injection).
	blocked map[[2]string]bool
	// linkFaults holds message-level fault state per directed link;
	// either endpoint may be the wildcard "*". Mutated only in driver
	// context, like blocked.
	linkFaults map[[2]string]LinkFault
	// faultTotals accumulates node/link fault-injection counters
	// (driver-context only; message-level counters live on hosts).
	faultTotals metrics.Faults

	// addrsCache holds the sorted address list; AddNode invalidates it,
	// so Addrs is O(copy) instead of O(n log n) between topology changes.
	addrsCache []string

	// msgs holds the message records no arrival event points at (see
	// message), and arenas the task arenas every host's node shares:
	// the simulator runs one task at a time on one goroutine.
	msgs   []*message
	arenas engine.Arenas
}

// NewNetwork creates an empty network on sim.
func NewNetwork(sim *Sim, cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		sim:        sim,
		cfg:        cfg,
		rng:        rng.Make(cfg.Seed),
		hosts:      make(map[string]*host),
		blocked:    make(map[[2]string]bool),
		linkFaults: make(map[[2]string]LinkFault),
	}
}

// Sim returns the underlying scheduler.
func (n *Network) Sim() *Sim { return n.sim }

// subSeed derives an independent RNG seed from the network seed and a
// textual key (host address, link endpoints). Derivation by key rather
// than by draw order makes every stream independent of the order hosts
// and links come into existence or execute.
func subSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64())
}

// AddNode creates and wires a node. Programs are installed by the caller.
func (n *Network) AddNode(addr string) (*engine.Node, error) {
	if _, ok := n.hosts[addr]; ok {
		return nil, fmt.Errorf("simnet: node %s already exists", addr)
	}
	h := &host{
		net:    n,
		addr:   addr,
		idx:    len(n.byIdx),
		kickAt: -1,
		rng:    rng.Make(subSeed(n.cfg.Seed, "host", addr)),
		links:  make(map[*host]*link),
	}
	cfg := engine.Config{
		Addr:       addr,
		Seed:       n.rng.Int63(),
		TraceStore: n.cfg.TraceStore,
		Clock:      n.sim.Now,
		Send: func(dst string, env engine.Envelope, at float64) {
			n.deliver(h, dst, env, at)
		},
		OnNewPeriodic: func(p *engine.Periodic) { n.schedulePeriodic(h, p) },
		Arenas:        &n.arenas,
	}
	if n.cfg.OnWatch != nil {
		cfg.OnWatch = func(now float64, t tuple.Tuple) { n.cfg.OnWatch(now, addr, t) }
	}
	if n.cfg.OnRuleError != nil {
		cfg.OnRuleError = func(now float64, ruleID string, err error) {
			n.cfg.OnRuleError(now, addr, ruleID, err)
		}
	}
	h.node = engine.NewNode(cfg)
	if n.cfg.Tracing != nil {
		if err := h.node.EnableTracing(*n.cfg.Tracing); err != nil {
			return nil, err
		}
	}
	n.hosts[addr] = h
	n.byIdx = append(n.byIdx, h)
	n.addrsCache = nil
	n.sim.at(n.sim.Now()+n.cfg.SweepInterval, h, sweep{})
	return h.node, nil
}

// Node returns a node by address, or nil.
func (n *Network) Node(addr string) *engine.Node {
	if h, ok := n.hosts[addr]; ok {
		return h.node
	}
	return nil
}

// Addrs returns all node addresses, sorted. The caller owns the
// returned slice; the sorted order is cached between AddNode calls.
func (n *Network) Addrs() []string {
	if n.addrsCache == nil {
		cache := make([]string, 0, len(n.byIdx))
		for _, h := range n.byIdx {
			cache = append(cache, h.addr)
		}
		sort.Strings(cache)
		n.addrsCache = cache
	}
	out := make([]string, len(n.addrsCache))
	copy(out, n.addrsCache)
	return out
}

// Dropped reports messages lost to sampling, partitions, or dead nodes,
// summed over the per-host counters.
func (n *Network) Dropped() int64 {
	var total int64
	for _, h := range n.byIdx {
		total += h.dropped
	}
	return total
}

// outLink returns (creating on first use) src's link state toward dst.
func (n *Network) outLink(src, dst *host) *link {
	lk := src.links[dst]
	if lk == nil {
		lk = &link{rng: rng.Make(subSeed(n.cfg.Seed, "link", src.addr, dst.addr))}
		src.links[dst] = lk
	}
	return lk
}

// linkFault resolves the fault state for the directed link src->dst:
// the most specific matching entry wins (exact, then src->*, then
// *->dst, then *->*). Returns the zero fault when none matches.
func (n *Network) linkFault(src, dst string) LinkFault {
	if len(n.linkFaults) == 0 {
		return LinkFault{}
	}
	for _, key := range [4][2]string{{src, dst}, {src, "*"}, {"*", dst}, {"*", "*"}} {
		if f, ok := n.linkFaults[key]; ok {
			return f
		}
	}
	return LinkFault{}
}

// SetLinkFault installs (or replaces) message-level fault state on the
// directed link src->dst; either endpoint may be "*". A zero fault
// clears the entry. Must be called from driver context (between Run
// calls, or from an unattributed scheduled event).
func (n *Network) SetLinkFault(src, dst string, f LinkFault) {
	n.faultTotals.LinkFaults++
	if f.IsZero() {
		delete(n.linkFaults, [2]string{src, dst})
		return
	}
	n.linkFaults[[2]string{src, dst}] = f
}

// GetLinkFault returns the fault entry stored for exactly src->dst
// (no wildcard resolution), for read-modify-write updates.
func (n *Network) GetLinkFault(src, dst string) LinkFault {
	return n.linkFaults[[2]string{src, dst}]
}

// deliver routes one message; called from inside src's task execution.
//
// Drop-path discipline: the sender's CPU cost for a message (the
// marshal in the engine's send postamble) is billed BEFORE deliver
// runs, so dropped and delivered messages cost the sender exactly the
// same simulated CPU. The delay sample is likewise drawn before any
// probabilistic drop decision, so a dropped message consumes the same
// link-RNG draws as a delivered one and loss never skews the delays of
// later messages on the link. TestDroppedMessagesBillSendCPU locks
// both properties. (Messages to dead, unknown, or partitioned
// destinations short-circuit before touching the link stream — the
// sender's OS would fail those sends without network activity.)
//
// env.Raw is the sender's marshal scratch, borrowed for this call: each
// copy that is scheduled takes its bytes into its own in-flight message
// record, a drop takes no record and copies nothing.
func (n *Network) deliver(src *host, dst string, env engine.Envelope, at float64) {
	if env.Src != src.addr {
		panic(fmt.Sprintf("simnet: node %s sent an envelope stamped %q", src.addr, env.Src))
	}
	h, ok := n.hosts[dst]
	if !ok || h.down || n.blocked[[2]string{src.addr, dst}] {
		src.dropped++
		return
	}
	lk := n.outLink(src, h)
	delay := n.cfg.MinDelay + lk.rng.Float64()*(n.cfg.MaxDelay-n.cfg.MinDelay)
	if n.cfg.LossProb > 0 && lk.rng.Float64() < n.cfg.LossProb {
		src.dropped++
		return
	}
	fault := n.linkFault(src.addr, dst)
	copies := 1
	reordered := false
	if !fault.IsZero() {
		// Fixed draw order keeps faulty runs bit-reproducible: drop,
		// jitter, duplicate, reorder.
		if fault.DropProb > 0 && lk.rng.Float64() < fault.DropProb {
			src.dropped++
			src.faultMsgs.MsgsDropped++
			return
		}
		if fault.ExtraDelay > 0 {
			delay += fault.ExtraDelay * lk.rng.Float64()
			src.faultMsgs.MsgsDelayed++
		}
		if fault.DupProb > 0 && lk.rng.Float64() < fault.DupProb {
			copies = 2
			src.faultMsgs.MsgsDuplicated++
		}
		if fault.ReorderProb > 0 && lk.rng.Float64() < fault.ReorderProb {
			reordered = true
			src.faultMsgs.MsgsReordered++
		}
	}
	for c := 0; c < copies; c++ {
		if c == 1 {
			// The duplicate is an independent network artifact: it takes
			// its own delay (and jitter) draws.
			delay = n.cfg.MinDelay + lk.rng.Float64()*(n.cfg.MaxDelay-n.cfg.MinDelay)
			if fault.ExtraDelay > 0 {
				delay += fault.ExtraDelay * lk.rng.Float64()
			}
		}
		arrival := at + delay
		if reordered {
			// Off the books: no FIFO clamp and no high-water-mark
			// update, so this message may overtake its predecessors or
			// be overtaken by its successors on the link.
		} else {
			if arrival <= lk.lastArrival {
				arrival = lk.lastArrival + 1e-9 // FIFO per link
			}
			lk.lastArrival = arrival
		}
		m := n.newMessage()
		*m = message{src: src, id: env.SrcTupleID, raw: append(m.raw, env.Raw...), sent: at}
		n.sim.at(arrival, h, m)
	}
}

// task is what a host's CPU runs besides a message: one engine
// transition. Like action, every kind is a type of its own that fits
// the interface's two words.
type task interface {
	// run executes the task on h and returns its simulated CPU cost.
	run(h *host) float64
}

// message is one envelope in flight to a host: the arrival event points
// at it, so the event heap carries it in two words. Records are recycled
// through the network's free list: the sender's execution takes one, and
// the arrival returns it at once, either after copying the envelope into
// the receiver's inbox or on finding the host down. A record therefore
// lives only while its message is in the event heap (at most 1 088 at
// once on the 1000-host join, which queues half a million messages, and
// 115 on the monitored 21-node ring). The record owns raw: deliver
// copies the sender's bytes into it, and release keeps the buffer with
// the record for the next message unless it grew past maxKeptRaw (the
// mean frame sent is 35.7 B on the 1000-host join and 32.8 B on the
// monitored 21-node ring, so buffer slack is live heap). The envelope's
// Src is kept as the sending host (deliver checks it is that host's
// address, as the engine stamps it).
type message struct {
	src  *host
	id   uint64  // Envelope.SrcTupleID
	raw  []byte  // Envelope.Raw
	sent float64 // node-local send time, for the hop-latency observation
}

// maxKeptRaw bounds the buffer a free record keeps. The free list
// itself needs no bound: a record joins it only after its message was in
// flight, so it never holds more records than the run's peak in flight.
const maxKeptRaw = 256

func (n *Network) newMessage() *message {
	k := len(n.msgs)
	if k == 0 {
		return new(message)
	}
	m := n.msgs[k-1]
	n.msgs[k-1] = nil
	n.msgs = n.msgs[:k-1]
	return m
}

func (n *Network) release(m *message) {
	raw := m.raw[:0]
	if cap(raw) > maxKeptRaw {
		raw = nil
	}
	*m = message{raw: raw}
	n.msgs = append(n.msgs, m)
}

func (m *message) fire(h *host, at float64) {
	if h.down {
		h.dropped++
		h.net.release(m)
		return
	}
	// The receiver observes the hop as the message lands: pure
	// receiver-owned measurement, invisible to billing and determinism.
	h.node.ObserveHop(at - m.sent)
	h.inbox.pushMessage(at, m.src.idx, m.id, m.raw)
	h.net.release(m)
	h.net.kick(h, at)
}

// sweep is a host's soft-state expiry: the event re-arms itself every
// SweepInterval for the life of the network (a down host skips the
// work, not the chain) and queues itself as the task.
type sweep struct{}

func (s sweep) fire(h *host, at float64) {
	n := h.net
	if !h.down {
		n.enqueue(h, s, at)
	}
	n.sim.at(at+n.cfg.SweepInterval, h, s)
}

func (sweep) run(h *host) float64 { return h.node.Sweep() }

// inbox is a host's run queue: every queued task is one record, in
// arrival order, so a stalled host's backlog is bytes rather than an
// object per message. A record is
//
//	kind (1 B) | at (8 B, float64 bits, little-endian)
//
// where at is the virtual time the task entered the queue (task start
// observes the wait), and a full message record goes on with
//
//	srcIdx (uvarint) | srcTupleID (uvarint) | rawLen (uvarint) | raw
//
// naming its sender by host index. A message from the sender of the last
// full message record pushed, with the same raw, is a repeat record
// instead: it goes on with varint(srcTupleID − the previous message's),
// so it is about 10 bytes (Chord's l3 sends one lookup per matching
// finger row, and 87 % of the 1000-host join's queued messages repeat
// the one before them this way). Timers, sweeps, injections and rejoins
// are few; a recTask record stands for the next entry of side, which
// holds them as typed values in the same order.
//
// The records sit in a FIFO of byte chunks, and no record spans two:
// buf is the oldest chunk, read from at head, and next holds the chunks
// after it, oldest first; records are appended to the newest chunk, buf
// while next is empty. A lone chunk grows by copying, as a flat buffer
// grows, while it stays within inboxChunk bytes; past that the queue
// chains new chunks of inboxChunk bytes (a record longer than that gets
// a chunk of its own) and never copies or compacts its backlog. pop
// lets a chunk go to the collector as it reads the chunk's last record,
// so while next is non-nil buf holds a record not yet read.
//
// A popped message's raw is borrowed from its chunk until the next call
// on the inbox, which may move bytes or drop the chunk: housekeeping runs
// as a task is pushed or before the next record is read, never while one
// is in use. The host's CPU server makes no call while a task runs. in
// is the last full message record pushed, its raw where it sits in its
// chunk; any move of buf or new chunk forgets it (a missed repeat only
// costs bytes). out is the last one popped, its raw borrowed until the
// next full record is popped: a move of buf puts that raw first, and a
// chunk the chain drops stays reachable through it. A drain or reset
// forgets both.
type inbox struct {
	buf     []byte
	head    int // buf[:head] is consumed
	n       int // queued tasks
	side    []task
	shead   int      // side[:shead] is consumed (and zeroed)
	next    [][]byte // the chunks after buf, oldest first; nil, not empty
	in, out entry    // the last full message records pushed and popped; id is the last message's
}

const (
	recMessage byte = iota
	recTask
	recRepeat
)

// Inbox housekeeping thresholds. A lone chunk's consumed prefix is
// compacted away once it is inboxCompactAt bytes and at least as long as
// the live rest, and a compaction or drain that leaves the live bytes
// under a quarter of the capacity moves them to a buffer of twice their
// size (inboxMinCap at least) instead, so a join burst's high-water mark
// goes back to the collector while a steady host keeps its buffer. A
// queue deeper than inboxChunk bytes chains chunks of that size. The
// side queue's consumed slots are compacted away the same way once there
// are sideCompactAt of them.
const (
	inboxCompactAt = 2048
	inboxMinCap    = 4096
	inboxChunk     = 64 << 10
	sideCompactAt  = 32
)

// entry is a popped record. do is nil for a message, whose envelope is
// src, id and raw (borrowed, see inbox).
type entry struct {
	do  task
	src int
	id  uint64
	raw []byte
}

// pushMessage queues a message, as a repeat record when it repeats in.
// It reserves room for a full record before it compares, since the
// reservation may move buf and so forget in.
func (q *inbox) pushMessage(at float64, src int, id uint64, raw []byte) {
	t := q.reserve(9 + 3*binary.MaxVarintLen64 + len(raw))
	repeat := q.in.raw != nil && src == q.in.src && string(raw) == string(q.in.raw)
	kind := recMessage
	if repeat {
		kind = recRepeat
	}
	b := binary.LittleEndian.AppendUint64(append(*t, kind), math.Float64bits(at))
	if repeat {
		b = binary.AppendVarint(b, int64(id-q.in.id))
	} else {
		b = binary.AppendUvarint(b, uint64(src))
		b = binary.AppendUvarint(b, id)
		b = binary.AppendUvarint(b, uint64(len(raw)))
		b = append(b, raw...)
		q.in.src, q.in.raw = src, b[len(b)-len(raw):]
	}
	*t = b
	q.in.id = id
	q.n++
}

func (q *inbox) pushTask(at float64, do task) {
	t := q.reserve(9)
	*t = binary.LittleEndian.AppendUint64(append(*t, recTask), math.Float64bits(at))
	q.side = append(q.side, do)
	q.n++
}

// reserve returns the chunk a record of at most n bytes is appended to,
// with room for n. It is small enough to inline; grow does the rest.
func (q *inbox) reserve(n int) *[]byte {
	if q.next != nil || cap(q.buf)-len(q.buf) < n {
		return q.grow(n)
	}
	return &q.buf
}

// grow is reserve for a chained queue or a full lone chunk. A full lone
// chunk is compacted in place when its live bytes and out.raw, with the
// n, would then fill between half and two thirds of it, so a queue that
// holds its depth stops allocating; otherwise they move to a new array
// of 1.5 times their size, rounded up so that the same need compacts in
// place next time, as long as that is within inboxChunk. (append's
// growth, which keeps the consumed prefix and grows a large buffer by
// 1.25, allocated a third more bytes per event on the 1000-host join.)
// Past that, and when the newest of chained chunks is full, the record
// starts a new chunk.
func (q *inbox) grow(n int) *[]byte {
	if k := len(q.next); k > 0 {
		if t := &q.next[k-1]; cap(*t)-len(*t) >= n {
			return t
		}
	} else {
		live := len(q.buf) - q.head + len(q.out.raw)
		need, c := live+n, cap(q.buf)
		switch {
		case 3*need <= 2*c && c <= 2*need:
			q.move(q.buf[:0])
			return &q.buf
		case 3*need <= 2*inboxChunk:
			q.move(make([]byte, 0, (3*need+1)/2))
			return &q.buf
		case live == 0: // nothing to keep: a new chunk replaces this one
			q.move(make([]byte, 0, max(inboxChunk, n)))
			return &q.buf
		}
	}
	q.in.raw = nil
	q.next = append(q.next, make([]byte, 0, max(inboxChunk, n)))
	return &q.next[len(q.next)-1]
}

// move makes dst the lone chunk: out.raw, unless it is longer than
// buf's consumed prefix (then it lies in another array, which it keeps),
// then buf's live records. It forgets in.
func (q *inbox) move(dst []byte) {
	if k := len(q.out.raw); k <= q.head {
		dst = append(dst, q.out.raw...)
		q.out.raw = dst[:k:k]
	}
	q.buf, q.head = append(dst, q.buf[q.head:]...), len(dst)
	q.in.raw = nil
}

// pop removes the head task for a start at now, with how long it waited
// and the queue depth (the task itself included) at that moment. The
// caller must check q.n > 0.
func (q *inbox) pop(now float64) (e entry, wait float64, depth int) {
	q.trim()
	b := q.buf[q.head:]
	wait = now - math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
	if wait < 0 {
		wait = 0
	}
	depth = q.n
	q.n--
	switch b[0] {
	case recTask:
		q.head += 9
		e.do = q.side[q.shead]
		q.side[q.shead] = nil
		q.shead++
		if live := len(q.side) - q.shead; live == 0 {
			q.side, q.shead = q.side[:0], 0
		} else if q.shead >= sideCompactAt && q.shead >= live {
			clear(q.side[copy(q.side, q.side[q.shead:]):]) // where the moved tasks were
			q.side, q.shead = q.side[:live], 0
		}
	case recMessage:
		i := 9
		src, k := binary.Uvarint(b[i:])
		i += k
		e.src = int(src)
		e.id, k = binary.Uvarint(b[i:])
		i += k
		size, k := binary.Uvarint(b[i:])
		i += k
		end := i + int(size)
		e.raw = b[i:end:end]
		q.out.src, q.out.id, q.out.raw = e.src, e.id, e.raw
		q.head += end
	case recRepeat:
		d, k := binary.Varint(b[9:])
		q.head += 9 + k
		q.out.id += uint64(d)
		e.src, e.id, e.raw = q.out.src, q.out.id, q.out.raw
	}
	if q.head == len(q.buf) && q.next != nil {
		// buf is consumed, and a borrowed raw keeps its bytes: the
		// next chunk, which holds a record, is the oldest.
		q.buf, q.head = q.next[0], 0
		q.next[0], q.next = nil, q.next[1:]
		if len(q.next) == 0 {
			q.next = nil
		}
	}
	if q.n == 0 {
		q.in.raw, q.out = nil, entry{}
	}
	return e, wait, depth
}

// trim gives a lone chunk's consumed prefix back (see inboxCompactAt),
// out.raw's bytes excepted. It moves bytes, so no popped raw may be in
// use. Chained chunks are left as they are.
func (q *inbox) trim() {
	keep := len(q.out.raw)
	live := len(q.buf) - q.head + keep
	if gone := q.head - keep; live > 0 && (gone < inboxCompactAt || gone < live) || q.next != nil {
		return
	}
	dst := q.buf[:0]
	if c := cap(q.buf); c > inboxMinCap && live < c/4 {
		dst = make([]byte, 0, max(inboxMinCap, 2*live))
	}
	q.move(dst)
}

// reset discards every queued task and the buffers with them.
func (q *inbox) reset() { *q = inbox{} }

// enqueue adds a CPU task to the host's run queue and kicks the server.
// now is the virtual time of the stimulus (the executing event's time).
func (n *Network) enqueue(h *host, do task, now float64) {
	h.inbox.pushTask(now, do)
	n.kick(h, now)
}

// kickRetry is the event that resumes a busy host's queue when its CPU
// frees up.
type kickRetry struct{}

func (kickRetry) fire(h *host, at float64) {
	h.kickAt = -1
	h.net.kick(h, at)
}

// kick runs queued tasks if the host CPU is free, else schedules a retry
// at busyUntil. The node is a single-server queue: task start time is
// max(now, busyUntil), and each task's simulated cost extends busyUntil.
func (n *Network) kick(h *host, now float64) {
	if h.busyUntil > now {
		if h.kickAt < 0 || h.kickAt > h.busyUntil {
			h.kickAt = h.busyUntil
			n.sim.at(h.busyUntil, h, kickRetry{})
		}
		return
	}
	for h.inbox.n > 0 {
		if h.down {
			h.inbox.reset()
			return
		}
		e, wait, depth := h.inbox.pop(now)
		// Queue-wait/depth observation at task start. Pure measurement:
		// no billing, no RNG draws, no event-order effect.
		h.node.ObserveQueueWait(wait, depth)
		var cost float64
		if e.do != nil {
			cost = e.do.run(h)
		} else {
			// The engine's arena copies what it keeps of Raw.
			cost = h.node.HandleMessage(engine.Envelope{Src: n.byIdx[e.src].addr, SrcTupleID: e.id, Raw: e.raw})
		}
		h.busyUntil = now + cost
		if h.busyUntil > now && h.inbox.n > 0 {
			// Still busy: resume when the CPU frees up.
			n.kick(h, now)
			return
		}
	}
	h.inbox.trim() // drained: nothing is borrowed any more
}

// schedulePeriodic arms a periodic trigger with a random initial phase
// (staggering, as independent processes would naturally have). The phase
// draw comes from the host's own RNG stream so it does not depend on
// what other hosts are doing. The chain is bound to the host's current
// incarnation: a crash bumps the epoch, so chains armed before it die
// at their next firing and a revived host re-arms fresh ones.
func (n *Network) schedulePeriodic(h *host, p *engine.Periodic) {
	first := n.sim.Now() + p.Period()*(0.05+0.95*h.rng.Float64())
	n.sim.at(first, h, &periodicChain{p: p, epoch: h.epoch})
}

// periodicChain is one armed timer chain: allocated once when armed,
// then every firing's event and timer task point at it.
type periodicChain struct {
	p     *engine.Periodic
	epoch uint64 // the host incarnation the chain was armed for
}

func (c *periodicChain) fire(h *host, at float64) {
	if h.down || h.epoch != c.epoch || c.p.Done() {
		return
	}
	n := h.net
	n.enqueue(h, c, at)
	n.sim.at(at+c.p.Period(), h, c)
}

func (c *periodicChain) run(h *host) float64 { return h.node.HandleTimer(c.p) }

// rearmPeriodics arms a fresh timer chain for every live periodic
// trigger of a revived host (the old chains died with the previous
// incarnation's epoch). Fresh stagger draws come from the host's own
// RNG stream, exactly as at install time.
func (n *Network) rearmPeriodics(h *host) {
	for _, p := range h.node.Periodics() {
		if !p.Done() {
			n.schedulePeriodic(h, p)
		}
	}
}

// Inject delivers a tuple to a node as a local event at the current time.
func (n *Network) Inject(addr string, t tuple.Tuple) error {
	h, ok := n.hosts[addr]
	if !ok {
		return fmt.Errorf("simnet: no node %s", addr)
	}
	n.enqueue(h, &localTuple{t}, n.sim.Now())
	return nil
}

// localTuple is a tuple injected at a node as a local event: InjectAt's
// event and the task both point at it.
type localTuple struct{ t tuple.Tuple }

func (l *localTuple) fire(h *host, at float64) {
	if !h.down {
		h.net.enqueue(h, l, at)
	}
}

func (l *localTuple) run(h *host) float64 { return h.node.HandleLocal(l.t) }

// InjectAt schedules a local tuple delivery at absolute virtual time at.
func (n *Network) InjectAt(at float64, addr string, t tuple.Tuple) error {
	h, ok := n.hosts[addr]
	if !ok {
		return fmt.Errorf("simnet: no node %s", addr)
	}
	if at < n.sim.Now() {
		at = n.sim.Now()
	}
	n.sim.at(at, h, &localTuple{t})
	return nil
}

// Crash fail-stops a node: pending tasks are discarded, future messages
// are dropped, and every timer chain is orphaned (the epoch bump kills
// it at its next firing). Must be called from driver context.
func (n *Network) Crash(addr string) {
	if h, ok := n.hosts[addr]; ok && !h.down {
		n.faultTotals.Crashes++
		h.down = true
		h.epoch++
		h.inbox.reset()
		h.busyUntil = n.sim.Now() // CPU work in flight dies with the process
	}
}

// Revive brings a crashed node back with its state intact (a
// restart-with-disk model; Rejoin models soft-state loss) and re-arms
// its periodic timers. Must be called from driver context.
func (n *Network) Revive(addr string) {
	if h, ok := n.hosts[addr]; ok && h.down {
		n.faultTotals.Restarts++
		h.down = false
		n.rearmPeriodics(h)
	}
}

// Rejoin brings a crashed node back as a fresh process: its soft state
// is gone (no delete events fire — the state of a dead process simply
// vanishes), the engine replays the node's preamble so it bootstraps
// exactly as it did at install time, and periodic timers are re-armed.
// Must be called from driver context.
func (n *Network) Rejoin(addr string) {
	if h, ok := n.hosts[addr]; ok && h.down {
		n.faultTotals.Rejoins++
		h.down = false
		n.enqueue(h, rejoin{}, n.sim.Now())
		n.rearmPeriodics(h)
	}
}

// rejoin is the task that replays a rejoining node's preamble.
type rejoin struct{}

func (rejoin) run(h *host) float64 { return h.node.Rejoin() }

// Partition severs both directions between a and b; Heal restores them.
func (n *Network) Partition(a, b string) {
	n.faultTotals.Partitions++
	n.blocked[[2]string{a, b}] = true
	n.blocked[[2]string{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b string) {
	n.faultTotals.Heals++
	delete(n.blocked, [2]string{a, b})
	delete(n.blocked, [2]string{b, a})
}

// FaultTotals returns the accumulated fault-injection counters:
// node/link lifecycle events plus the message-level effects summed over
// the per-host counters (in node-creation order, like TotalMetrics).
// The Injected field stays zero here; the faults injector fills it.
func (n *Network) FaultTotals() metrics.Faults {
	total := n.faultTotals
	for _, h := range n.byIdx {
		total.Add(h.faultMsgs)
	}
	return total
}

// Run advances the simulation to absolute virtual time t.
func (n *Network) Run(t float64) { n.sim.Run(t) }

// RunFor advances the simulation by d seconds.
func (n *Network) RunFor(d float64) { n.Run(n.sim.Now() + d) }

// TotalMetrics sums node counters across the network in node-creation
// order (a fixed order keeps the floating-point sum reproducible).
func (n *Network) TotalMetrics() metrics.Node {
	var total metrics.Node
	for _, h := range n.byIdx {
		m := h.node.Metrics()
		total.BusySeconds += m.BusySeconds
		total.MsgsSent += m.MsgsSent
		total.MsgsRecv += m.MsgsRecv
		total.BytesSent += m.BytesSent
		total.BytesRecv += m.BytesRecv
		total.TuplesProcessed += m.TuplesProcessed
		total.RuleFires += m.RuleFires
		total.HeadsEmitted += m.HeadsEmitted
		total.RuleErrors += m.RuleErrors
		total.TimerFires += m.TimerFires
	}
	return total
}
