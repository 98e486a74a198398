package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"p2go"
	"p2go/internal/realtime"
)

func TestParseSeed(t *testing.T) {
	good := []struct {
		src  string
		name string
		loc  string
	}{
		{`link@n1("n2", 1).`, "link", "n1"},
		{`peer@n3("n1").`, "peer", "n3"},
		{`node@a(0xff).`, "node", "a"},
		{`conf@host(3.5, true, [1, 2]).`, "conf", "host"},
	}
	for _, c := range good {
		tp, err := parseSeed(c.src)
		if err != nil {
			t.Errorf("parseSeed(%q): %v", c.src, err)
			continue
		}
		if tp.Name != c.name || tp.Loc() != c.loc {
			t.Errorf("parseSeed(%q) = %v", c.src, tp)
		}
	}
	bad := []string{
		`not a tuple`,
		`x@n1(Unbound).`,
		`a@n1(1), b@n1(2).`,
	}
	for _, src := range bad {
		if _, err := parseSeed(src); err == nil {
			t.Errorf("parseSeed(%q) must fail", src)
		}
	}
}

func TestInjectSeedsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seeds")
	err := os.WriteFile(path, []byte(`
// comment
link@n1("n2", 1).

link@n2("n1", 1).
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sim := p2go.NewSim()
	net := p2go.NewNetwork(sim, p2go.NetworkConfig{Seed: 1})
	prog := p2go.MustParse(`materialize(link, infinity, infinity, keys(1,2)).`)
	for _, a := range []string{"n1", "n2"} {
		n, _ := net.AddNode(a)
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := injectSeeds(net, path); err != nil {
		t.Fatal(err)
	}
	net.Run(1)
	for _, a := range []string{"n1", "n2"} {
		if got := net.Node(a).Store().Get("link").Count(); got != 1 {
			t.Errorf("%s link rows = %d", a, got)
		}
	}
	if err := injectSeeds(net, filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must fail")
	}
}

const pathProgram = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
watch(path).
p0 path@A(B, [A, B], W) :- link@A(B, W).
p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).
`

const pathSeeds = `link@n1("n2", 1).
link@n2("n3", 2).
`

// syncBuffer is a bytes.Buffer that node goroutines may write
// concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// sortedLines splits a dump into its rows, sorted: the drivers agree on
// rows, not on the order a table holds them in.
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	slices.Sort(lines)
	return lines
}

// TestRealtimePath runs the -realtime driver on the transitive-path
// program, three UDP nodes over loopback: it derives the same five path
// rows as the simulator, and one scrape of its metrics listener covers
// all three nodes.
func TestRealtimePath(t *testing.T) {
	seedPath := filepath.Join(t.TempDir(), "seeds")
	if err := os.WriteFile(seedPath, []byte(pathSeeds), 0o644); err != nil {
		t.Fatal(err)
	}
	seeds, err := readSeeds(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	prog := p2go.MustParse(pathProgram)

	sim := p2go.NewSim()
	net := p2go.NewNetwork(sim, p2go.NetworkConfig{Seed: 1})
	var simNodes []*p2go.Node
	for _, a := range []string{"n1", "n2", "n3"} {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
		simNodes = append(simNodes, n)
	}
	if err := injectSeeds(net, seedPath); err != nil {
		t.Fatal(err)
	}
	net.Run(1)
	var want bytes.Buffer
	dumpTables(&want, "path", sim.Now(), simNodes...)
	if rows := sortedLines(want.String()); len(rows) != 5 {
		t.Fatalf("simulator derived %d path rows, want 5:\n%s", len(rows), want.String())
	}

	var watched syncBuffer
	rt, err := newRealtime(prog, 3, 1, false, &watched, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := realtime.ServeMetrics("127.0.0.1:0", rt...)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, u := range rt {
		defer u.Stop()
		u.Start()
	}
	if err := injectRealtime(rt, seeds); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); strings.Count(watched.String(), " path@") < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("watched paths before the deadline:\n%s", watched.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n1", "n2", "n3"} {
		if !strings.Contains(string(body), `p2_msgs_recv_total{node="`+node+`"}`) {
			t.Errorf("one scrape lacks node %s:\n%s", node, body)
		}
	}

	nodes := make([]*p2go.Node, len(rt))
	for i, u := range rt {
		u.Stop()
		nodes[i] = u.Node()
	}
	var got bytes.Buffer
	dumpTables(&got, "path", nodes[0].Now(), nodes...)
	if !slices.Equal(sortedLines(got.String()), sortedLines(want.String())) {
		t.Errorf("realtime path rows:\n%s\nsimulator's:\n%s", got.String(), want.String())
	}
}
