package realtime

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"p2go/internal/tuple"
)

// chatterProgram generates steady load: a periodic rule pings the peer,
// which materializes what it heard.
const chatterProgram = `
materialize(heard, 10, 1000, keys(2)).
c1 ping@Peer(NAddr, E) :- periodic@NAddr(E, 0.01), peer@NAddr(Peer).
c2 heard@NAddr(Src) :- ping@NAddr(Src, E).
materialize(peer, infinity, 1, keys(2)).
`

// TestMetricsSnapshotUnderLoad hammers two running nodes with messages
// and timers while concurrent readers take MetricsSnapshots. Under -race
// (the make check gate) this locks in the single-writer discipline:
// snapshots ride the node's own task queue instead of touching node
// state from foreign goroutines.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	nodes := openNodes(t, UDPNodeConfig{Seed: 7}, chatterProgram, "ra", "rb")
	ra, rb := nodes[0], nodes[1]
	ra.Node().SeedLocal(tuple.New("peer", tuple.Str("ra"), tuple.Str("rb")))
	rb.Node().SeedLocal(tuple.New("peer", tuple.Str("rb"), tuple.Str("ra")))
	ra.Start()
	rb.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Injector goroutine adds extra foreign-goroutine traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ra.Inject(tuple.New("ping", tuple.Str("ra"), tuple.Str("inj"), tuple.ID(uint64(i)))) //nolint:errcheck
			time.Sleep(time.Millisecond)
		}
	}()
	// Concurrent snapshot readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, u := range nodes {
					u.MetricsSnapshot()
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	s := rb.MetricsSnapshot()
	if s.Node.TuplesProcessed == 0 || s.Node.TimerFires == 0 {
		t.Errorf("node did no work under load: %+v", s.Node)
	}
	if s.Hists.QueueWait.Count() == 0 {
		t.Error("queue-wait histogram empty despite task traffic")
	}
	if s.Hists.HopLatency.Count() == 0 {
		t.Error("hop-latency histogram empty despite cross-node pings")
	}
	if len(s.Queries) == 0 {
		t.Error("no per-query bills in snapshot")
	}
	// Snapshot after Stop (direct-read path).
	ra.Stop()
	if s := ra.MetricsSnapshot(); s.Node.TuplesProcessed == 0 {
		t.Errorf("stopped snapshot lost the counters: %+v", s.Node)
	}
}

// TestServeMetrics lets two nodes chatter and scrapes the Prometheus
// endpoint while they are live (the cmd/p2node -metrics-addr path): one
// listener, one exposition covering both nodes, with cross-node traffic
// visible, served race-free (exercised under -race), still served once
// the nodes stop and gone once the caller closes the listener.
func TestServeMetrics(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		nodes := openNodes(t, UDPNodeConfig{Seed: 1}, chatterProgram, "a", "b")
		a, b := nodes[0], nodes[1]
		a.Node().SeedLocal(tuple.New("peer", tuple.Str("a"), tuple.Str("b")))
		b.Node().SeedLocal(tuple.New("peer", tuple.Str("b"), tuple.Str("a")))
		ln, err := ServeMetrics("127.0.0.1:0", a, b)
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		a.Start()
		b.Start()

		want := []string{
			"# TYPE p2_busy_seconds_total counter",
			"# TYPE p2_queue_wait_seconds histogram",
			`p2_queue_wait_seconds_count{node="b"}`,
			`p2_timer_fires_total{node="a"}`,
			`p2_timer_fires_total{node="b"}`,
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			time.Sleep(50 * time.Millisecond)
			body := scrape(t, addr)
			missing := ""
			for _, w := range want {
				if !strings.Contains(body, w) {
					missing = w
				}
			}
			// b has processed cross-node traffic.
			if missing == "" && strings.Contains(body, `p2_msgs_recv_total{node="b"}`) &&
				!strings.Contains(body, `p2_msgs_recv_total{node="b"} 0`) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("scrape incomplete before deadline (missing %q):\n%s", missing, body)
			}
		}
		// Direct concurrent snapshots: counters only grow.
		s1, s2 := b.MetricsSnapshot(), b.MetricsSnapshot()
		if s2.Node.TuplesProcessed < s1.Node.TuplesProcessed {
			t.Errorf("TuplesProcessed went backwards: %d then %d",
				s1.Node.TuplesProcessed, s2.Node.TuplesProcessed)
		}
		a.Stop()
		b.Stop()
		if body := scrape(t, addr); !strings.Contains(body, `p2_timer_fires_total{node="a"}`) {
			t.Errorf("scrape of stopped nodes lacks a:\n%s", body)
		}
		ln.Close()
		// Drop the kept-alive connection first so the client has to dial
		// again.
		http.DefaultClient.CloseIdleConnections()
		if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
			t.Error("metrics endpoint still up after its listener closed")
		}
	})
}

// TestServeMetricsPprof: the metrics listener also serves the Go
// runtime's profile index.
func TestServeMetricsPprof(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		u := udpNode(t, "a", "127.0.0.1:0")
		ln, err := ServeMetrics("127.0.0.1:0", u)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		u.Start()
		resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Errorf("GET /debug/pprof/ = %s:\n%s", resp.Status, body)
		}
	})
}

func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
