package realtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestInjectOverloadDrop: with the default OverloadDrop policy a full
// queue sheds the injected event, returns ErrOverload and counts the
// drop — deterministically, on an unstarted node whose queue nothing
// drains.
func TestInjectOverloadDrop(t *testing.T) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			p := l.open(t, "", linkOpts{depth: 2})
			ev := tuple.New("ev", tuple.Str("a"), tuple.Int(1))
			for i := 0; i < 2; i++ {
				if err := p.inject("a", ev); err != nil {
					t.Fatalf("inject %d into empty queue: %v", i, err)
				}
			}
			if err := p.inject("a", ev); !errors.Is(err, ErrOverload) {
				t.Fatalf("inject into full queue = %v, want ErrOverload", err)
			}
			if s := p.stats("a"); s.DropInject != 1 {
				t.Errorf("DropInject = %d, want 1", s.DropInject)
			}
		})
	}
}

// TestInjectOverloadBlock: under OverloadBlock a full queue makes
// Inject wait — and complete as soon as the executor drains.
func TestInjectOverloadBlock(t *testing.T) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			p := l.open(t, "", linkOpts{depth: 1, overload: OverloadBlock})
			ev := tuple.New("ev", tuple.Str("a"), tuple.Int(1))
			if err := p.inject("a", ev); err != nil {
				t.Fatal(err)
			}
			unblocked := make(chan error, 1)
			go func() { unblocked <- p.inject("a", ev) }()
			select {
			case err := <-unblocked:
				t.Fatalf("Inject returned %v while the queue was full; want blocked", err)
			case <-time.After(100 * time.Millisecond):
			}
			p.start() // executor drains the queue, releasing the blocked call
			select {
			case err := <-unblocked:
				if err != nil {
					t.Fatalf("blocked Inject = %v after drain, want nil", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Inject still blocked after the executor started")
			}
			if s := p.stats("a"); s.DropInject != 0 {
				t.Errorf("DropInject = %d under backpressure, want 0", s.DropInject)
			}
		})
	}
}

// TestDropAccountingUnderOverload hammers a tiny queue with real UDP
// traffic while the executor is wedged, then releases it and checks the
// conservation law: every received datagram is processed or accounted
// to exactly one drop reason. OverloadDrop must shed and count;
// OverloadBlock must shed nothing (what it cannot queue stays in the
// kernel). Run under -race in CI (the reader, executor, generator and
// this goroutine all touch the counters).
func TestDropAccountingUnderOverload(t *testing.T) {
	for _, tc := range []struct {
		name     string
		overload OverloadPolicy
	}{{"drop", OverloadDrop}, {"block", OverloadBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := NewUDPNode(UDPNodeConfig{
				Addr: "rt", Listen: "127.0.0.1:0", Seed: 1, QueueDepth: 8, Overload: tc.overload,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Stop()
			prog := overlog.MustParse("r1 seen@N(S) :- ev@N(S, P).\n")
			if err := u.Node().InstallProgram(prog); err != nil {
				t.Fatal(err)
			}
			u.Start()
			release := make(chan struct{})
			u.exec.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() { <-release }}

			gs, err := GenerateTraffic(GenConfig{
				Target: u.LocalAddr(), Dst: "rt", Rate: 20000, Conns: 2, Duration: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			close(release)

			balanced := func(s TransportStats) bool {
				return s.DatagramsRecv == s.DatagramsProcessed+s.DropDecode+s.DropOverload+s.DropShutdown
			}
			deadline := time.Now().Add(5 * time.Second)
			var s TransportStats
			for time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
				prev := s
				s = u.TransportStats()
				if s == prev && balanced(s) {
					break
				}
			}
			if !balanced(s) {
				t.Fatalf("accounting does not balance: %+v", s)
			}
			if tc.overload == OverloadDrop && s.DropOverload == 0 {
				t.Errorf("no overload drops despite queue depth 8 against %d offered datagrams", gs.Sent)
			}
			if tc.overload == OverloadBlock && s.DropOverload != 0 {
				t.Errorf("backpressure shed %d datagrams, want 0", s.DropOverload)
			}
			if s.DatagramsRecv == 0 {
				t.Error("no datagrams received")
			}
		})
	}
}

// TestReaderAllocsPerDatagram gates the reader hot path at the ISSUE-10
// budget of <=1 alloc per datagram (steady state measures 0: pooled
// buffer, interned source, closure-free task).
func TestReaderAllocsPerDatagram(t *testing.T) {
	allocs, err := MeasureReaderAllocs(5000)
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Errorf("reader hot path = %.3f allocs/datagram, want <= 1", allocs)
	}
}

// BenchmarkReaderHotPath measures the dispatch path (framing check,
// account, enqueue, recycle) in isolation, per envelope: lone is one
// envelope a datagram, bundled one datagram of 21, about what the
// udp-collector workload's bundles carry. Run with -benchmem to see the
// allocation rate the test above gates.
func BenchmarkReaderHotPath(b *testing.B) {
	for _, tc := range []struct {
		name string
		envs int
	}{{"lone", 1}, {"bundled", 21}} {
		b.Run(tc.name, func(b *testing.B) {
			u, err := NewUDPNode(UDPNodeConfig{
				Addr: "benchrt", Listen: "127.0.0.1:0", Seed: 1, QueueDepth: 16, MaxDatagram: 2048,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer u.conn.Close()
			raw := tuple.Marshal(nil, tuple.New("ev", tuple.Str("benchrt"), tuple.ID(7), tuple.Str("xxxxxxxxxxxxxxxx")))
			frame := appendHeader(nil, genSrc, 1)
			for i := 0; i < tc.envs; i++ {
				frame = appendRecord(frame, uint64(i+1), raw)
			}
			at := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			// One op is one envelope: a datagram every tc.envs ops.
			for i := 0; i < b.N; i += tc.envs {
				buf := u.exec.pool.get()
				copy(*buf, frame)
				u.dispatch(buf, len(frame), at, false)
				select {
				case tk := <-u.exec.tasks:
					u.exec.pool.put(tk.buf)
				default:
				}
			}
		})
	}
}

// TestUDPPeriodicCadence: UDP-node periodics on the single resettable
// timer fire at roughly wall-clock rate (regression for the re-arm
// rewrite; the Network equivalent is TestRealtimePeriodic).
func TestUDPPeriodicCadence(t *testing.T) {
	wl := &watchLog{}
	u, err := NewUDPNode(UDPNodeConfig{
		Addr: "a", Listen: "127.0.0.1:0", Seed: 5,
		OnWatch: func(_ float64, tp tuple.Tuple) { wl.add(tp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = u.Node().InstallProgram(overlog.MustParse(`
watch(tick).
t1 tick@N(E) :- periodic@N(E, 0.05).
`))
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	time.Sleep(500 * time.Millisecond)
	u.Stop()
	got := wl.count("tick")
	if got < 4 || got > 15 {
		t.Errorf("ticks in 0.5s at 20 Hz = %d, want roughly 10", got)
	}
}

// TestTransportStatsPublished: the transport counters flow into the
// observability surfaces — ObsCounters/MetricsSnapshot extras, the
// queryable nodeStats table (§3.2 profiler), and the Prometheus
// exposition.
func TestTransportStatsPublished(t *testing.T) {
	u, err := NewUDPNode(UDPNodeConfig{Addr: "a", Listen: "127.0.0.1:0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	if err := u.Node().EnableStatsPublication(0.05); err != nil {
		t.Fatal(err)
	}
	metricsAddr, err := u.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u.Start()

	// Extras carry the transport counters.
	s := u.MetricsSnapshot()
	found := false
	for _, c := range s.Extras {
		if c.Name == "TransportDatagramsRecv" {
			found = true
		}
	}
	if !found {
		t.Fatalf("TransportDatagramsRecv missing from ObsCounters extras: %v", s.Extras)
	}

	// The nodeStats table gains the transport rows after a publication
	// firing.
	deadline := time.Now().Add(3 * time.Second)
	published := false
	for !published && time.Now().Before(deadline) {
		time.Sleep(30 * time.Millisecond)
		res := make(chan bool, 1)
		select {
		case u.exec.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() {
			ok := false
			if tbl := u.exec.node.Store().Get("nodeStats"); tbl != nil {
				tbl.Scan(1e12, func(row tuple.Tuple) {
					if row.Arity() >= 3 && row.Field(2).AsStr() == "TransportDatagramsRecv" {
						ok = true
					}
				})
			}
			res <- ok
		}}:
			published = <-res
		case <-u.exec.stopped:
			t.Fatal("node stopped")
		}
	}
	if !published {
		t.Error("TransportDatagramsRecv row never appeared in nodeStats")
	}

	// The Prometheus exposition includes the transport series.
	body := scrape(t, metricsAddr)
	for _, series := range []string{"transport_datagrams_recv", "transport_send_calls"} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape lacks %s:\n%s", series, body)
		}
	}
}
