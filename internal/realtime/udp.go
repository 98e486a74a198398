package realtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/tuple"
)

// UDP transport: one P2 node per OS process, exchanging envelope
// datagrams — the deployment shape of the original P2 prototype (the
// paper's testbed ran 21 processes over UDP).
//
// Datagram format: one header, then the envelope records it carries:
//
//	datagram := srcLen(uvarint) src sentNanos(8B LE) record+
//	record   := srcTupleID(uvarint) rawLen(uvarint) tupleBytes
//
// where tupleBytes is the standard tuple wire encoding and sentNanos is
// the sender's wall clock (unix nanoseconds) at transmission, letting
// the receiver observe end-to-end ingest latency in its hop histogram
// (exact on one host; across hosts it inherits clock skew like any
// one-way delay measure). Every record is length-prefixed, so the link
// frames and checks datagrams without parsing tuples. A datagram whose
// records do not exactly tile the bytes after its header is dropped
// whole and counted, as UDP noise should be; a record whose tuple bytes
// do not decode is the engine's to report, and the records after it
// still run.
//
// The receive path is built for sustained 100k+ datagrams/sec: pooled
// receive buffers, batched socket reads (recvmmsg where the platform
// has it, one datagram a syscall where it does not), allocation-free
// task dispatch, and a batched executor dequeue. The send path mirrors
// it: a batch's envelopes are framed into one arena, an envelope joining
// the newest queued datagram when that one goes to the same peer and
// stays within maxBundle, and the queue is written when the batch ends
// (sendmmsg where the platform has it, WriteToUDP per datagram where it
// does not). Sends that alternate between peers start a new datagram
// each. See task.go, executor.go and docs/REALTIME.md.

// UDPNodeConfig configures a single-process UDP node.
type UDPNodeConfig struct {
	// Addr is the node's P2 address (its location-specifier value).
	Addr string
	// Listen is the UDP address to bind, e.g. "127.0.0.1:7001".
	Listen string
	// Peers maps P2 addresses to UDP addresses. Tuples routed to an
	// unknown peer are dropped.
	Peers map[string]string
	// Seed seeds the node RNG.
	Seed int64
	// QueueDepth is the executor task-queue capacity (default 1024).
	QueueDepth int
	// MaxDatagram is the receive-buffer size handed to the socket per
	// datagram (default 64 KiB, the UDP maximum). Smaller values shrink
	// the buffer pool's footprint under overload; datagrams longer than
	// this are truncated by the kernel, fail to decode, and count in
	// DropDecode. It also caps the datagrams this node bundles envelopes
	// into (see maxBundle).
	MaxDatagram int
	// SocketBuf, when positive, requests this SO_RCVBUF size so the
	// kernel absorbs bursts the executor has not yet drained.
	SocketBuf int
	// Overload selects the full-queue policy: OverloadDrop (default,
	// UDP-style shed with exact accounting) or OverloadBlock
	// (backpressure). Inject honors the same policy as the socket
	// reader.
	Overload OverloadPolicy
	// OnWatch and OnRuleError mirror the simulator's hooks, called from
	// the executor goroutine. A watched tuple is lent, read-only, until
	// OnWatch returns: an observer that keeps it, changes it or hands it
	// to another goroutine works on t.Clone() (see
	// engine.Config.OnWatch).
	OnWatch     func(now float64, t tuple.Tuple)
	OnRuleError func(now float64, ruleID string, err error)
}

// UDPNode runs one engine node on a UDP socket: an executor plus the
// socket link (one reader goroutine in, a batched writer out).
type UDPNode struct {
	exec *executor
	conn *net.UDPConn
	// peers and out belong to the executor: sends use them on the loop,
	// and AddPeer runs there once the node has started.
	peers  map[string]*udpPeer
	out    sendQueue
	bw     *batchWriter // nil where the platform has no sendmmsg
	reader sync.WaitGroup
	srcs   tuple.Interner // the reader's: envelope source addresses
	start  time.Time      // the node clock's zero, set once by NewUDPNode
}

// udpPeer is a peer's address in the two forms the writer uses: sa is
// the raw sockaddr sendmmsg reads, built once (nil where the batched
// writer cannot express the address), addr the one WriteToUDP takes.
type udpPeer struct {
	addr *net.UDPAddr
	sa   []byte
}

// ioBatch is the number of datagrams one recvmmsg or sendmmsg call
// moves, and the number of envelopes the send queue holds: it is
// written once ioBatch envelopes are queued, so it never holds more
// datagrams than one call takes.
const ioBatch = 32

// maxBundle bounds the datagrams send bundles envelopes into: the UDP
// payload of a 1500-byte Ethernet MTU, so a bundle is never
// IP-fragmented. A node whose MaxDatagram is smaller uses that instead.
// An envelope larger on its own goes alone.
const maxBundle = 1472

// maxKeptArena bounds the arena capacity a flush keeps: 256 B an
// envelope, simnet's maxPooledRaw, four times a typical 60–120 B frame.
// A batch of larger envelopes gives its arena back to the collector.
const maxKeptArena = ioBatch * 256

// sendQueue holds the datagrams sent since the last flush: frames back
// to back in one arena, each with its peer.
type sendQueue struct {
	arena  []byte
	frames [ioBatch]queuedFrame
	n      int // frames queued
	envs   int // envelopes queued, in those frames
	max    int // bundle bound: min(maxBundle, MaxDatagram)
}

type queuedFrame struct {
	end int // the frame is arena[previous frame's end:end]
	to  *udpPeer
}

// frame returns queued frame i.
func (q *sendQueue) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = q.frames[i-1].end
	}
	return q.arena[start:q.frames[i].end]
}

// joins reports whether a record of size bytes to p can join the newest
// queued frame. The header it would share is right for it: every
// envelope a node sends names the node as its source, and every frame
// in the queue carries the same stamp, since a queue fills under one
// batch clock and a send outside any batch is written before it
// returns.
func (q *sendQueue) joins(p *udpPeer, size int) bool {
	return q.n > 0 && q.frames[q.n-1].to == p && len(q.frame(q.n-1))+size <= q.max
}

// TransportStats are the datagram-level counters of one UDP node: what
// actually crossed (or failed to cross) the socket, including framing
// bytes. The engine's own metrics.Node counters (MsgsSent, BytesSent,
// MsgsRecv, BytesRecv) keep counting payload traffic on this transport
// exactly as they do under the simulator; these add the wire view plus
// the drop reasons the simulator doesn't have.
//
// The counters satisfy an exact conservation law:
//
//	DatagramsRecv = DatagramsProcessed + DropDecode + DropOverload
//	              + DropShutdown + (still queued)
//
// so once the queue drains (quiescence, or after Stop) every received
// datagram is accounted for by exactly one of the four outcomes.
type TransportStats struct {
	// DatagramsSent/BytesSent count framed datagrams written to peers;
	// one datagram carries one or more envelopes, which the engine's
	// MsgsSent counts.
	DatagramsSent, BytesSent int64
	// SendCalls counts the write syscalls that carried them (sendmmsg
	// calls, or WriteToUDP calls where a datagram goes alone), so
	// DatagramsSent/SendCalls is datagrams per syscall.
	SendCalls int64
	// DatagramsRecv/BytesRecv count datagrams read off the socket
	// (before decode).
	DatagramsRecv, BytesRecv int64
	// DatagramsProcessed counts datagrams whose task the executor ran
	// through the engine.
	DatagramsProcessed int64
	// DropUnknownPeer counts sends to P2 addresses with no peer
	// mapping; DropDecode counts undecodable (or kernel-truncated)
	// datagrams; DropOverload counts datagrams shed under OverloadDrop
	// because the task queue was full; DropShutdown counts datagrams
	// discarded while stopping (enqueue raced Stop, or still queued
	// when the executor exited).
	DropUnknownPeer, DropDecode, DropOverload, DropShutdown int64
	// DropInject counts Inject calls shed under OverloadDrop. Injected
	// events are local, not datagrams, so this is deliberately outside
	// the conservation law above.
	DropInject int64
}

type transportCounters struct {
	datagramsSent, bytesSent, sendCalls       atomic.Int64
	datagramsRecv, bytesRecv                  atomic.Int64
	datagramsProcessed                        atomic.Int64
	dropUnknownPeer, dropDecode, dropOverload atomic.Int64
	dropShutdown, dropInject                  atomic.Int64
}

func (c *transportCounters) snapshot() TransportStats {
	return TransportStats{
		DatagramsSent:      c.datagramsSent.Load(),
		BytesSent:          c.bytesSent.Load(),
		SendCalls:          c.sendCalls.Load(),
		DatagramsRecv:      c.datagramsRecv.Load(),
		BytesRecv:          c.bytesRecv.Load(),
		DatagramsProcessed: c.datagramsProcessed.Load(),
		DropUnknownPeer:    c.dropUnknownPeer.Load(),
		DropDecode:         c.dropDecode.Load(),
		DropOverload:       c.dropOverload.Load(),
		DropShutdown:       c.dropShutdown.Load(),
		DropInject:         c.dropInject.Load(),
	}
}

// obs renders the counters as observability extras for ObsCounters /
// the Prometheus exposition / the queryable nodeStats table.
func (c *transportCounters) obs() []metrics.Counter {
	s := c.snapshot()
	return []metrics.Counter{
		{Name: "TransportDatagramsSent", Prom: "transport_datagrams_sent", I: s.DatagramsSent},
		{Name: "TransportBytesSent", Prom: "transport_bytes_sent", I: s.BytesSent},
		{Name: "TransportSendCalls", Prom: "transport_send_calls", I: s.SendCalls},
		{Name: "TransportDatagramsRecv", Prom: "transport_datagrams_recv", I: s.DatagramsRecv},
		{Name: "TransportBytesRecv", Prom: "transport_bytes_recv", I: s.BytesRecv},
		{Name: "TransportDatagramsProcessed", Prom: "transport_datagrams_processed", I: s.DatagramsProcessed},
		{Name: "TransportDropUnknownPeer", Prom: "transport_drop_unknown_peer", I: s.DropUnknownPeer},
		{Name: "TransportDropDecode", Prom: "transport_drop_decode", I: s.DropDecode},
		{Name: "TransportDropOverload", Prom: "transport_drop_overload", I: s.DropOverload},
		{Name: "TransportDropShutdown", Prom: "transport_drop_shutdown", I: s.DropShutdown},
		{Name: "TransportDropInject", Prom: "transport_drop_inject", I: s.DropInject},
	}
}

// TransportStats snapshots the datagram-level counters; safe to call
// concurrently with a running node.
func (u *UDPNode) TransportStats() TransportStats { return u.exec.stats.snapshot() }

// sentNanosLen is the fixed width of the wall-clock send stamp in the
// datagram header. Fixed-width (not varint) so traffic generators can
// patch it into a prebuilt frame at a constant offset.
const sentNanosLen = 8

var (
	errBadHeader  = errors.New("realtime: bad datagram header")
	errBadRecords = errors.New("realtime: datagram records do not tile it")
)

// appendHeader starts a datagram: the source all its records share, and
// the send stamp.
func appendHeader(dst []byte, src string, sentNanos int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	dst = append(dst, src...)
	return binary.LittleEndian.AppendUint64(dst, uint64(sentNanos))
}

// appendRecord appends one envelope's record to a datagram.
func appendRecord(dst []byte, id uint64, raw []byte) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	return append(dst, raw...)
}

// recordLen is the length appendRecord gives the record.
func recordLen(id uint64, raw []byte) int {
	return uvarintLen(id) + uvarintLen(uint64(len(raw))) + len(raw)
}

// uvarintLen is the length of x's uvarint encoding: 7 bits a byte.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendDatagram frames a lone envelope: a header and one record.
func appendDatagram(dst []byte, env engine.Envelope, sentNanos int64) []byte {
	return appendRecord(appendHeader(dst, env.Src, sentNanos), env.SrcTupleID, env.Raw)
}

// decodeDatagram parses a datagram's header and checks that its records
// exactly tile the rest: at least one, none cut short. recs is that run
// of records, for nextRecord. It aliases b; src is interned in srcs
// (allocation-free for repeated senders), and the engine copies or
// interns everything it keeps out of a record, so the backing buffer is
// recyclable as soon as the last record has run.
func decodeDatagram(srcs *tuple.Interner, b []byte) (src string, sent int64, recs []byte, err error) {
	srcLen, n := binary.Uvarint(b)
	// Compared as uint64: the length is the sender's claim, and 2^64-1
	// converted to int first is -1, which passes.
	if n <= 0 || srcLen > uint64(len(b)-n) || len(b)-n-int(srcLen) < sentNanosLen {
		return "", 0, nil, errBadHeader
	}
	rest := b[n+int(srcLen):]
	sent = int64(binary.LittleEndian.Uint64(rest))
	recs = rest[sentNanosLen:]
	if len(recs) == 0 {
		return "", 0, nil, errBadRecords
	}
	for r := recs; len(r) > 0; {
		var ok bool
		if _, _, r, ok = nextRecord(r); !ok {
			return "", 0, nil, errBadRecords
		}
	}
	return srcs.Bytes(b[n : n+int(srcLen)]), sent, recs, nil
}

// nextRecord splits the first record off a run of records: its source
// tuple ID, its tuple bytes, and the records after it. ok is false when
// the record is cut short.
func nextRecord(b []byte) (id uint64, raw, rest []byte, ok bool) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, false
	}
	rawLen, m := binary.Uvarint(b[n:])
	if m <= 0 || rawLen > uint64(len(b)-n-m) {
		return 0, nil, nil, false
	}
	end := n + m + int(rawLen)
	return id, b[n+m : end], b[end:], true
}

// NewUDPNode binds the socket and builds the node (stopped; call Start).
func NewUDPNode(cfg UDPNodeConfig) (*UDPNode, error) {
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 64 << 10
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("realtime: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("realtime: %w", err)
	}
	if cfg.SocketBuf > 0 {
		conn.SetReadBuffer(cfg.SocketBuf) //nolint:errcheck // kernel caps silently; best effort
	}
	u := &UDPNode{
		exec:  newExecutor(cfg.QueueDepth, cfg.Overload, newBufPool(cfg.MaxDatagram)),
		conn:  conn,
		peers: make(map[string]*udpPeer),
		out:   sendQueue{max: min(maxBundle, cfg.MaxDatagram)},
		bw:    newBatchWriter(conn),
	}
	u.exec.batchEnd = u.flush
	for p2addr, udpAddr := range cfg.Peers {
		if err := u.AddPeer(p2addr, udpAddr); err != nil {
			conn.Close()
			return nil, fmt.Errorf("realtime: peer %s: %w", p2addr, err)
		}
	}
	u.start = time.Now()
	u.exec.node = engine.NewNode(engine.Config{
		Addr:          cfg.Addr,
		Seed:          cfg.Seed,
		Clock:         func() float64 { return time.Since(u.start).Seconds() },
		Send:          u.send,
		OnWatch:       cfg.OnWatch,
		OnRuleError:   cfg.OnRuleError,
		OnNewPeriodic: u.exec.arm,
		ExtraObs:      u.exec.stats.obs,
	})
	return u, nil
}

// Node returns the engine node for program installation before Start.
func (u *UDPNode) Node() *engine.Node { return u.exec.node }

// LocalAddr returns the bound UDP address (useful with port 0).
func (u *UDPNode) LocalAddr() string { return u.conn.LocalAddr().String() }

// AddPeer registers (or updates) a peer mapping. The peer table belongs
// to the executor: before Start the mapping applies here, after it the
// update runs on the executor as a control task and AddPeer returns once
// sends see it, so it must not be called from the node's own callbacks.
func (u *UDPNode) AddPeer(p2addr, udpAddr string) error {
	ra, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return err
	}
	p := &udpPeer{addr: ra}
	if u.bw != nil {
		p.sa = u.bw.sockaddr(ra)
	}
	u.exec.do(func() { u.peers[p2addr] = p })
	return nil
}

// send is the outbound half of the socket link, run by the node's single
// writer. It frames the envelope into the send queue, so Raw is consumed
// before it returns, stamped with the batch clock: read before the batch
// ran, so never later than the write, and HopLatency can only over-state
// a hop. The envelope joins the newest queued datagram when that one
// goes to the same peer and still fits; otherwise it starts a datagram
// of its own. The queue is written when the batch ends, or as soon as
// it holds ioBatch envelopes; a send from outside any batch (a caller's,
// before Start) is written before it returns.
func (u *UDPNode) send(dst string, env engine.Envelope, _ float64) {
	p, ok := u.peers[dst]
	if !ok {
		u.exec.stats.dropUnknownPeer.Add(1)
		return
	}
	q := &u.out
	start := len(q.arena)
	if !q.joins(p, recordLen(env.SrcTupleID, env.Raw)) {
		stamp := u.exec.batchNanos
		if stamp == 0 {
			stamp = time.Now().UnixNano()
		}
		q.arena = appendHeader(q.arena, env.Src, stamp)
		q.frames[q.n] = queuedFrame{to: p}
		q.n++
		u.exec.stats.datagramsSent.Add(1)
	}
	q.arena = appendRecord(q.arena, env.SrcTupleID, env.Raw)
	q.frames[q.n-1].end = len(q.arena)
	q.envs++
	u.exec.stats.bytesSent.Add(int64(len(q.arena) - start))
	if q.envs == ioBatch || u.exec.batchNanos == 0 {
		u.flush()
	}
}

// flush writes the queued frames in order and empties the queue: the
// batched writer takes each run of frames it can address, one sendmmsg
// per call, and WriteToUDP writes the rest, or all of them where there
// is no batched writer. A frame the kernel rejects is lost like any
// datagram; it stays counted in DatagramsSent, and the frames behind it
// still go.
func (u *UDPNode) flush() {
	q := &u.out
	for i := 0; i < q.n; {
		frames, calls := 0, 0
		if u.bw != nil {
			frames, calls = u.bw.write(q, i)
		}
		if frames == 0 {
			u.conn.WriteToUDP(q.frame(i), q.frames[i].to.addr) //nolint:errcheck // datagram loss is expected
			frames, calls = 1, 1
		}
		u.exec.stats.sendCalls.Add(int64(calls))
		i += frames
	}
	clear(q.frames[:q.n])
	q.n, q.envs = 0, 0
	q.arena = q.arena[:0]
	if cap(q.arena) > maxKeptArena {
		q.arena = nil
	}
}

// Inject hands a tuple to the node as a local event. It honors the
// node's overload policy exactly like the socket reader: under
// OverloadDrop a full queue sheds the event (counted in DropInject) and
// returns ErrOverload; under OverloadBlock the call waits for space.
// After Stop it returns ErrStopped.
func (u *UDPNode) Inject(t tuple.Tuple) error { return u.exec.inject(t) }

// dispatch is the inbound half of the socket link: it checks one
// datagram's framing and hands it to the executor as one task, whose
// records the executor runs one by one. buf is the pooled buffer
// backing the datagram bytes, whose ownership transfers to the task (and
// back to the pool on any drop); trunc says the kernel cut the datagram
// to fit it. at is the batch receive timestamp. This is the reader hot
// path: at most one allocation per datagram (an interning miss on a
// brand-new source address) and none per record, verified by
// TestReaderAllocsPerDatagram.
func (u *UDPNode) dispatch(buf *[]byte, n int, at time.Time, trunc bool) {
	src, sent, recs, err := decodeDatagram(&u.srcs, (*buf)[:n])
	if trunc || err != nil {
		u.exec.stats.datagramsRecv.Add(1)
		u.exec.stats.bytesRecv.Add(int64(n))
		u.exec.stats.dropDecode.Add(1)
		u.exec.pool.put(buf)
		return
	}
	u.exec.receive(task{at: at, sent: sent, kind: taskDatagram, env: engine.Envelope{Src: src, Raw: recs}, buf: buf}, n)
}

// readBatched drains the socket via recvmmsg: one syscall and one clock
// read cover up to a whole batch of datagrams.
func (u *UDPNode) readBatched(br *batchReader) {
	for {
		cnt, ok := br.read()
		if !ok {
			return // socket closed by Stop
		}
		at := time.Now()
		for i := 0; i < cnt; i++ {
			buf, n, trunc := br.take(i)
			u.dispatch(buf, n, at, trunc)
		}
	}
}

// readPortable is the only path on platforms without recvmmsg: one
// datagram a syscall.
func (u *UDPNode) readPortable() {
	for {
		buf := u.exec.pool.get()
		n, _, err := u.conn.ReadFromUDP(*buf)
		if err != nil {
			u.exec.pool.put(buf)
			return // socket closed by Stop
		}
		u.dispatch(buf, n, time.Now(), false)
	}
}

// Start launches the reader and executor goroutines. The node clock
// keeps running from NewUDPNode: times read before Start (installs,
// SeedLocal) stay behind every time read after it.
func (u *UDPNode) Start() {
	u.reader.Add(1)
	go func() {
		defer u.reader.Done()
		if br := newBatchReader(u.conn, u.exec.pool); br != nil {
			u.readBatched(br)
			return
		}
		u.readPortable()
	}()
	u.exec.start()
}

// MetricsSnapshot returns a consistent snapshot of the node's counters,
// per-query bills and histograms; safe to call concurrently with a
// running node (see executor.snapshot).
func (u *UDPNode) MetricsSnapshot() Stats { return u.exec.snapshot() }

// ServeMetrics starts an HTTP listener whose /metrics is the Prometheus
// text exposition of every node's counters, per-query bills and
// histograms (cmd/p2node -realtime -metrics-addr), in the order given.
// Each scrape takes one MetricsSnapshot per node, so scraping live nodes
// is safe. The same listener serves the Go runtime's profiles under
// /debug/pprof/, so an operator who opted in to a metrics endpoint can
// also ask where the process's time goes. The caller closes the
// returned listener; its Addr is the bound address (useful with port
// 0).
func ServeMetrics(listen string, nodes ...*UDPNode) (net.Listener, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("realtime: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, u := range nodes {
			s := u.MetricsSnapshot()
			if metrics.WritePrometheus(w, u.Node().Addr(), s.Node, s.Queries, &s.Hists, s.Extras...) != nil {
				return // client gone
			}
		}
	})
	go (&http.Server{Handler: mux}).Serve(ln) //nolint:errcheck // the closed listener ends Serve
	return ln, nil
}

// Stop closes the socket and waits for the goroutines; what is still
// queued is booked to DropShutdown, so the conservation law over
// TransportStats holds exactly even for an abrupt stop
// (TestStopUnderLoad).
func (u *UDPNode) Stop() {
	u.exec.halt()
	u.conn.Close()
	u.reader.Wait()
	u.exec.wait()
}
