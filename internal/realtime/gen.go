package realtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// Paced open-loop UDP traffic generator: the load source for
// TestDropAccountingUnderOverload. Open-loop means the send schedule is
// fixed by the target rate, not by receiver progress — the receiver
// being slow does not slow the generator down, which is what makes
// measured overload (and the drop accounting) meaningful. The pacing
// loop is deficit-based: each wake-up sends however many events the
// schedule says are due, with the catch-up burst capped so a scheduler
// stall turns into a bounded burst rather than a megaburst.
//
// It sends a pre-framed datagram: the wire frame is built once per
// connection and each send patches only the two fixed-width fields that
// change — the sender wall-clock stamp (at a fixed frame offset) and the
// event's sequence ID (located once via a sentinel value).

// GenConfig configures the traffic generator.
type GenConfig struct {
	// Target is the receiver's UDP address.
	Target string
	// Dst is the receiver's P2 address: the location field of every
	// generated event, ev(Dst, Seq, Payload).
	Dst string
	// Rate is the target aggregate events/sec across all connections.
	Rate int
	// Conns is the number of sender sockets, each with its own pacing
	// goroutine (default 1).
	Conns int
	// Duration is how long to generate.
	Duration time.Duration
}

// GenStats reports what the generator offered to the kernel.
type GenStats struct {
	// Sent counts datagrams handed to the kernel; Errors datagrams lost
	// to send errors (not counted in Sent).
	Sent, Errors int64
}

// genSrc is the envelope source address of generated (and probe) events.
const genSrc = "gen"

// eventFrame frames one generated event ev(dst, seq, 16-byte payload).
func eventFrame(dst string, seq uint64, sentNanos int64) []byte {
	raw := tuple.Marshal(nil, tuple.New("ev", tuple.Str(dst), tuple.ID(seq), tuple.Str("xxxxxxxxxxxxxxxx")))
	return appendDatagram(nil, engine.Envelope{Src: genSrc, SrcTupleID: 1, Raw: raw}, sentNanos)
}

// seqSentinel marks the sequence field in the frame template so the
// generator can locate its fixed-width encoding once per connection.
const seqSentinel = uint64(0x5eedfeedbeefcafe)

// maxCatchup caps the pacing deficit one wake-up may repay, bounding
// the burst after a scheduler stall.
const maxCatchup = 128

// GenerateTraffic runs the generator to completion and reports what was
// offered. It returns an error only for setup problems; send errors
// during the run are counted, not fatal.
func GenerateTraffic(cfg GenConfig) (GenStats, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Rate <= 0 {
		return GenStats{}, fmt.Errorf("realtime: generator rate must be positive")
	}

	// Build the frame template and locate the two patch points.
	tmpl := eventFrame(cfg.Dst, seqSentinel, 0)
	sentOff := len(binary.AppendUvarint(nil, uint64(len(genSrc)))) + len(genSrc)
	var sentinel [8]byte
	binary.LittleEndian.PutUint64(sentinel[:], seqSentinel)
	seqOff := bytes.Index(tmpl, sentinel[:])
	if seqOff < 0 {
		return GenStats{}, fmt.Errorf("realtime: generator could not locate seq field")
	}
	if _, _, _, err := decodeDatagram(tmpl); err != nil {
		return GenStats{}, fmt.Errorf("realtime: generator template does not decode: %w", err)
	}

	var sent, errs atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Conns; ci++ {
		// Spread the aggregate rate over connections, remainder to the
		// first.
		target := cfg.Rate / cfg.Conns
		if ci == 0 {
			target += cfg.Rate % cfg.Conns
		}
		conn, err := net.Dial("udp", cfg.Target)
		if err != nil {
			return GenStats{}, fmt.Errorf("realtime: generator dial: %w", err)
		}
		uconn := conn.(*net.UDPConn)
		wg.Add(1)
		go func(ci, target int) {
			defer wg.Done()
			defer uconn.Close()
			frame := bytes.Clone(tmpl)
			seq := uint64(ci+1) << 48 // per-connection sequence space
			var paced int64           // events the schedule has consumed
			begin := time.Now()
			for {
				el := time.Since(begin)
				if el >= cfg.Duration {
					return
				}
				due := int64(float64(target) * el.Seconds())
				if due <= paced {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				binary.LittleEndian.PutUint64(frame[sentOff:], uint64(time.Now().UnixNano()))
				for burst := min(due-paced, maxCatchup); burst > 0; burst-- {
					binary.LittleEndian.PutUint64(frame[seqOff:], seq)
					seq++
					if _, err := uconn.Write(frame); err == nil {
						sent.Add(1)
					} else {
						errs.Add(1)
					}
					paced++
				}
			}
		}(ci, target)
	}
	wg.Wait()
	return GenStats{Sent: sent.Load(), Errors: errs.Load()}, nil
}

// MeasureReaderAllocs reports the average heap allocations per datagram
// on the reader hot path (decode + accounting + enqueue, i.e.
// UDPNode.dispatch) by pushing n pre-framed datagrams through an
// unstarted node and recycling each task inline, exactly as the
// executor would. The ISSUE-10 budget is ≤1 alloc/datagram; in steady
// state (interned source, warm buffer pool) the path measures 0.
func MeasureReaderAllocs(n int) (float64, error) {
	u, err := NewUDPNode(UDPNodeConfig{
		Addr: "allocprobe", Listen: "127.0.0.1:0", QueueDepth: 16, MaxDatagram: 2048,
	})
	if err != nil {
		return 0, err
	}
	defer u.conn.Close()
	frame := eventFrame("allocprobe", 1, 1)
	at := time.Now()
	push := func() {
		b := u.exec.pool.get()
		copy(*b, frame)
		u.dispatch(b, len(frame), at, false)
		select {
		case t := <-u.exec.tasks:
			u.exec.pool.put(t.buf)
		default:
		}
	}
	// Warm the intern pool and the buffer pool before measuring.
	for i := 0; i < 64; i++ {
		push()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		push()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
