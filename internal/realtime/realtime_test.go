package realtime

import (
	"sync"
	"testing"
	"time"

	"p2go/internal/tuple"
)

// watchLog is a concurrency-safe watched-tuple collector.
type watchLog struct {
	mu   sync.Mutex
	seen []tuple.Tuple
	at   []float64 // node time of each watched tuple
}

func (w *watchLog) add(now float64, t tuple.Tuple) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seen = append(w.seen, t)
	w.at = append(w.at, now)
}

func (w *watchLog) count(name string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, t := range w.seen {
		if t.Name == name {
			n++
		}
	}
	return n
}

// first returns the node time of the first watched tuple called name.
func (w *watchLog) first(name string) (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range w.seen {
		if t.Name == name {
			return w.at[i], true
		}
	}
	return 0, false
}

const pathProgram = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
watch(path).
p0 path@A(B, [A, B], W) :- link@A(B, W).
p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).
`

// TestRealtimePathProgram runs the quickstart program on wall-clock
// time, three nodes over loopback UDP: the same OverLog that runs under
// simnet works unchanged under goroutines and sockets.
func TestRealtimePathProgram(t *testing.T) {
	wl := &watchLog{}
	nodes := openNodes(t, UDPNodeConfig{Seed: 3, OnWatch: wl.add}, pathProgram, "n1", "n2", "n3")
	for _, u := range nodes {
		u.Start()
	}
	if err := nodes[0].Inject(tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Inject(tuple.New("link", tuple.Str("n2"), tuple.Str("n3"), tuple.Int(2))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for wl.count("path") < 5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for _, u := range nodes {
		u.Stop()
	}
	// Same derivation as the simnet test: 5 paths total across nodes.
	if got := wl.count("path"); got != 5 {
		t.Fatalf("derived %d paths, want 5", got)
	}
	var n3paths int
	nodes[2].Node().Store().Get("path").Scan(1e12, func(tuple.Tuple) { n3paths++ })
	if n3paths != 2 {
		t.Errorf("n3 holds %d paths, want 2", n3paths)
	}
}

// TestRealtimePeriodic: a timer's first firing comes one full period
// after the install that armed it (TestUDPPeriodicCadence checks the
// ones after it).
func TestRealtimePeriodic(t *testing.T) {
	const period = 0.05
	wl := &watchLog{}
	u := openNodes(t, UDPNodeConfig{Seed: 5, OnWatch: wl.add}, "", "n1")[0]
	installed := u.Node().Now() // no later than the timer is armed
	install(t, u.Node(), `
watch(tick).
t1 tick@N(E) :- periodic@N(E, 0.05).
`)
	u.Start()
	eventually(t, "the first tick", func() bool { return wl.count("tick") > 0 })
	if first, _ := wl.first("tick"); first < installed+period {
		t.Errorf("first tick %.4f s after install, want at least a full period (%.2f s)", first-installed, period)
	}
}
