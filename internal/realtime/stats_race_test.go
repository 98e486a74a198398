package realtime

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"p2go/internal/overlog"
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

// TestMetricsSnapshotUnderLoad hammers a running realtime network with
// messages and timers while concurrent readers take MetricsSnapshots.
// Under -race (the make check gate) this locks in the single-writer
// discipline: snapshots ride the node's own task queue instead of
// touching node state from foreign goroutines.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	net := NewNetwork(Config{Seed: 7})
	prog := overlog.MustParse(chatterProgram)
	for _, a := range []string{"ra", "rb"} {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	net.Node("ra").SeedLocal(tuple.New("peer", tuple.Str("ra"), tuple.Str("rb")))
	net.Node("rb").SeedLocal(tuple.New("peer", tuple.Str("rb"), tuple.Str("ra")))
	net.Start()
	defer net.Stop()

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
			net.Inject("ra", tuple.New("ping", tuple.Str("ra"), tuple.Str("inj"), tuple.ID(uint64(i)))) //nolint:errcheck
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
				for _, a := range []string{"ra", "rb"} {
					if _, err := net.MetricsSnapshot(a); err != nil {
						t.Errorf("snapshot %s: %v", a, err)
						return
					}
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	s, err := net.MetricsSnapshot("rb")
	if err != nil {
		t.Fatal(err)
	}
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
	net.Stop()
	if _, err := net.MetricsSnapshot("ra"); err != nil {
		t.Errorf("stopped snapshot: %v", err)
	}
}

// TestServeMetrics lets two nodes chatter and scrapes the Prometheus
// endpoint while they are live (the cmd/p2node -metrics-addr path): one
// exposition covering every node the endpoint serves, with cross-node
// traffic visible, served race-free (exercised under -race) and gone
// after Stop.
func TestServeMetrics(t *testing.T) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			p := l.open(t, chatterProgram, linkOpts{})
			p.a.node.SeedLocal(tuple.New("peer", tuple.Str("a"), tuple.Str("b")))
			p.b.node.SeedLocal(tuple.New("peer", tuple.Str("b"), tuple.Str("a")))
			addr, err := p.serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p.start()

			want := []string{
				"# TYPE p2_busy_seconds_total counter",
				"# TYPE p2_queue_wait_seconds histogram",
				`p2_queue_wait_seconds_count{node="b"}`,
			}
			for _, node := range p.scraped {
				want = append(want, `p2_timer_fires_total{node="`+node+`"}`)
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
			s1, s2 := p.b.snapshot(), p.b.snapshot()
			if s2.Node.TuplesProcessed < s1.Node.TuplesProcessed {
				t.Errorf("TuplesProcessed went backwards: %d then %d",
					s1.Node.TuplesProcessed, s2.Node.TuplesProcessed)
			}
			p.stop()
			// The listener dies with the node (drop the kept-alive
			// connection first so the client has to dial again).
			http.DefaultClient.CloseIdleConnections()
			if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
				t.Error("metrics endpoint still up after Stop")
			}
		})
	}
}

// TestServeMetricsPprof: the metrics listener also serves the Go
// runtime's profile index, on both links.
func TestServeMetricsPprof(t *testing.T) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			p := l.open(t, "", linkOpts{})
			addr, err := p.serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p.start()
			resp, err := http.Get("http://" + addr + "/debug/pprof/")
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
