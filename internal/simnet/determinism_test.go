package simnet

import (
	"fmt"
	"sort"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// runScenario drives a small lossy network through injections, a crash,
// a partition, and watched tuples, and returns a full fingerprint of the
// run: per-node metrics, table contents, watch/error streams, and drop
// counts.
func runScenario(t *testing.T) string {
	t.Helper()
	sim := NewSim()
	var watched []string
	net := NewNetwork(sim, Config{
		Seed:     77,
		MinDelay: 0.004, MaxDelay: 0.03,
		LossProb: 0.15,
		OnWatch: func(now float64, node string, tp tuple.Tuple) {
			watched = append(watched, fmt.Sprintf("%.9f %s %v", now, node, tp))
		},
	})
	prog := overlog.MustParse(`
materialize(seen, infinity, infinity, keys(1,2)).
watch(seen).
f1 seen@N(Seq) :- token@N(Seq).
f2 token@Dst(Seq) :- send@N(Dst, Seq).
f3 send@N(Next, Seq + 1) :- token@N(Seq), peer@N(Next), Seq < 40.
materialize(peer, infinity, infinity, keys(1)).
`)
	addrs := []string{"a", "b", "c", "d"}
	for _, a := range addrs {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	// Ring of peers so tokens cascade around with random delays.
	for i, a := range addrs {
		next := addrs[(i+1)%len(addrs)]
		if err := net.Inject(a, tuple.New("peer", tuple.Str(a), tuple.Str(next))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 8; i++ {
		dst := addrs[i%int64(len(addrs))]
		err := net.Inject("a", tuple.New("send", tuple.Str("a"), tuple.Str(dst), tuple.Int(i*100)))
		if err != nil {
			t.Fatal(err)
		}
	}
	net.Run(2)
	net.Crash("c")
	net.Partition("a", "b")
	net.RunFor(2)
	net.Revive("c")
	net.Heal("a", "b")
	if err := net.InjectAt(sim.Now()+0.5, "c", tuple.New("send",
		tuple.Str("c"), tuple.Str("d"), tuple.Int(9000))); err != nil {
		t.Fatal(err)
	}
	net.RunFor(3)

	var b []string
	for _, a := range addrs {
		n := net.Node(a)
		b = append(b, fmt.Sprintf("%s metrics=%+v", a, n.Metrics()))
		var rows []string
		tb := n.Store().Get("seen")
		tb.Scan(sim.Now(), func(tp tuple.Tuple) {
			rows = append(rows, fmt.Sprintf("%v#%d", tp, tp.ID))
		})
		sort.Strings(rows)
		b = append(b, rows...)
	}
	b = append(b, fmt.Sprintf("dropped=%d now=%v", net.Dropped(), sim.Now()))
	b = append(b, watched...)
	out := ""
	for _, l := range b {
		out += l + "\n"
	}
	return out
}

// TestParallelMatchesSequential is the determinism contract at small
// scale: a run is a pure function of its seed, so two runs give
// byte-identical metrics, tables, drops, and watch streams. (It keeps the
// name it had when the second run was the parallel driver's.)
func TestParallelMatchesSequential(t *testing.T) {
	first, second := runScenario(t), runScenario(t)
	if first != second {
		t.Fatalf("same seed, different runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestParallelUnattributedEventsBarrier: raw Sim.At events (no host
// attribution) run at their own times, interleaved in order with the
// hosts' events, without being lost or reordered.
func TestParallelUnattributedEventsBarrier(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{Seed: 3})
	prog := overlog.MustParse(`
materialize(seen, infinity, infinity, keys(1,2)).
f1 seen@N(Seq) :- token@N(Seq).
f2 token@Dst(Seq) :- send@N(Dst, Seq).
`)
	for _, a := range []string{"a", "b"} {
		n, err := net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	var log, want []string
	for i := 0; i < 5; i++ {
		at := 0.5 + float64(i)
		sim.At(at, func() { log = append(log, fmt.Sprintf("global@%.1f now=%.1f", at, sim.Now())) })
		want = append(want, fmt.Sprintf("global@%.1f now=%.1f", at, at))
	}
	for i := int64(0); i < 20; i++ {
		err := net.Inject("a", tuple.New("send", tuple.Str("a"), tuple.Str("b"), tuple.Int(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	net.Run(10)
	count := 0
	net.Node("b").Store().Get("seen").Scan(sim.Now(), func(tuple.Tuple) { count++ })
	log = append(log, fmt.Sprintf("seen=%d", count))
	want = append(want, "seen=20")
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("unattributed events:\ngot:  %v\nwant: %v", log, want)
	}
}
