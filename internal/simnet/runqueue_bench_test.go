package simnet

import (
	"testing"

	"p2go/internal/allocwin"
	"p2go/internal/engine"
)

// queueLoad is the run-queue side of one message: the arrival takes a
// recycled record as deliver does and lands it (push), and the task start
// pops it. inbox and the reference (runqueueref_test.go) each implement
// it the way their network did.
type queueLoad interface {
	push(src *host, env engine.Envelope, at float64)
	pop(now float64)
	reset()
}

type inboxLoad struct{ q inbox }

func (l *inboxLoad) push(src *host, env engine.Envelope, at float64) {
	m := src.net.newMessage()
	*m = message{src: src, id: env.SrcTupleID, raw: append(m.raw, env.Raw...), sent: at}
	l.q.pushMessage(at, m.src.idx, m.id, m.raw)
	src.net.release(m)
}

func (l *inboxLoad) pop(now float64) {
	e, _, _ := l.q.pop(now)
	sinkRaw = e.raw
	if l.q.n == 0 {
		l.q.trim()
	}
}

func (l *inboxLoad) reset() { l.q.reset() }

type refLoad struct{ q refQueue }

func (l *refLoad) push(src *host, env engine.Envelope, at float64) {
	l.q.refDeliver(src, env, at, at)
}

func (l *refLoad) pop(now float64) {
	st, _, _ := l.q.pop(now)
	m := st.do.(*message)
	sinkRaw = m.raw
	m.src.net.release(m)
}

func (l *refLoad) reset() { l.q.clearQueue() }

var sinkRaw []byte

// BenchmarkRunQueue moves messages through a host's run queue the way
// the 1000-host join does: a 37-byte payload (the join's mean) from a
// sender whose index takes two uvarint bytes. flowing keeps 16 messages
// queued and pushes one for every pop, a host keeping up; backlog queues
// 10 000 and then drains them, a host stalled behind a burst; deep queues
// 500 000, as the join's landmark does, and drains them. Each reports
// ns/message, B/message, the bytes allocated per message moved, and
// heapB/queued-msg, the live heap the queue holds per message queued
// (measured once, at the queue's depth), beside the reference:
// ref-flowing and ref-backlog run the []simTask and recycled *message
// queue the inbox replaced.
func BenchmarkRunQueue(b *testing.B) {
	src := &host{idx: 500, addr: "10.0.1.244:10500", net: new(Network)}
	env := engine.Envelope{Src: src.addr, SrcTupleID: 1 << 20, Raw: make([]byte, 37)}
	for _, c := range []struct {
		name  string
		load  func() queueLoad
		depth int
		burst bool
	}{
		{"flowing", func() queueLoad { return &inboxLoad{} }, 16, false},
		{"backlog", func() queueLoad { return &inboxLoad{} }, 10000, true},
		{"deep", func() queueLoad { return &inboxLoad{} }, 500000, true},
		{"ref-flowing", func() queueLoad { return &refLoad{} }, 16, false},
		{"ref-backlog", func() queueLoad { return &refLoad{} }, 10000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := c.load()
			now := 0.0
			fill := func() {
				for k := 0; k < c.depth; k++ {
					now++
					l.push(src, env, now)
				}
			}
			empty := allocwin.LiveBytes()
			fill()
			heapPerMsg := float64(allocwin.LiveBytes()-empty) / float64(c.depth)
			if c.burst {
				for k := 0; k < c.depth; k++ {
					l.pop(now)
				}
			}
			msgs := b.N
			b.ReportAllocs()
			w := allocwin.Measure(func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if c.burst {
						fill()
						for k := 0; k < c.depth; k++ {
							l.pop(now)
						}
					} else {
						now++
						l.push(src, env, now)
						l.pop(now)
					}
				}
				b.StopTimer()
			})
			if c.burst {
				msgs *= c.depth
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/message")
			b.ReportMetric(float64(w.Bytes)/float64(msgs), "B/message")
			b.ReportMetric(heapPerMsg, "heapB/queued-msg")
			l.reset()
		})
	}
}
