package chord

import (
	"math/rand"
	"testing"

	"p2go/internal/faults"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

func TestNodeIDDeterministic(t *testing.T) {
	if NodeID("n1") != NodeID("n1") {
		t.Error("NodeID must be deterministic")
	}
	if NodeID("n1") == NodeID("n2") {
		t.Error("distinct addresses should get distinct IDs")
	}
}

func TestRingOfOne(t *testing.T) {
	r, err := NewRing(RingConfig{N: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(30)
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors)
	}
	if got := r.BestSucc("n1"); got != "n1" {
		t.Errorf("lone landmark bestSucc = %q, want self", got)
	}
}

// TestWatchedOrOnWatch: a ring collects watched tuples in Watched only
// when no OnWatch hook receives them, so a caller with its own hook does
// not also keep every tuple alive in the ring.
func TestWatchedOrOnWatch(t *testing.T) {
	run := func(hook bool) (watched, heard int) {
		cfg := RingConfig{N: 3, Seed: 42,
			ExtraPrograms: []*overlog.Program{WatchProgram("bestSucc")}}
		if hook {
			cfg.OnWatch = func(float64, string, tuple.Tuple) { heard++ }
		}
		r, err := NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(60)
		return len(r.Watched), heard
	}
	collected, _ := run(false)
	watched, heard := run(true)
	if collected == 0 {
		t.Fatal("a ring without a hook collected no watched tuple")
	}
	if watched != 0 || heard != collected {
		t.Errorf("with a hook: Watched holds %d, the hook heard %d; want 0 and %d", watched, heard, collected)
	}
}

func TestRingConvergence(t *testing.T) {
	r, err := NewRing(RingConfig{N: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(180)
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(5, len(r.Errors))])
	}
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged after 180s: %v", bad)
	}
}

func TestLookupCorrectness(t *testing.T) {
	r, err := NewRing(RingConfig{N: 10, Seed: 7,
		ExtraPrograms: []*overlog.Program{WatchProgram("lookupResults")}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300) // converge ring and fingers
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	rng := rand.New(rand.NewSource(99))
	type want struct {
		key   uint64
		owner string
	}
	wants := map[uint64]want{}
	for i := 0; i < 20; i++ {
		key := rng.Uint64()
		reqID := uint64(1000 + i)
		from := r.Addrs[rng.Intn(len(r.Addrs))]
		if err := r.Lookup(from, key, reqID); err != nil {
			t.Fatal(err)
		}
		wants[reqID] = want{key: key, owner: TrueOwner(key, r.Addrs)}
	}
	r.Run(30)
	got := map[uint64]string{}
	for _, w := range r.Watched {
		if w.T.Name != "lookupResults" {
			continue
		}
		// lookupResults(ReqAddr, K, SID, SAddr, E, RespAddr)
		got[w.T.Field(4).AsID()] = w.T.Field(3).AsStr()
	}
	for reqID, w := range wants {
		owner, ok := got[reqID]
		if !ok {
			t.Errorf("lookup %d (key %x) got no response", reqID, w.key)
			continue
		}
		if owner != w.owner {
			t.Errorf("lookup %d: owner = %s, want %s", reqID, owner, w.owner)
		}
	}
}

func TestFailureRecovery(t *testing.T) {
	r, err := NewRing(RingConfig{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(180)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged before failure: %v", bad)
	}
	// Kill two non-landmark nodes.
	rep, err := r.RunFaults(faults.MustParse("at 0 crash n4 n6"), 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Members) != 6 || len(rep.Violations) > 0 {
		t.Fatalf("ring of %d did not heal after failures: %v", len(rep.Members), rep.Violations)
	}
}

func TestLateJoin(t *testing.T) {
	r, err := NewRing(RingConfig{N: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(120)
	if _, err := r.AddLateNode("n6"); err != nil {
		t.Fatal(err)
	}
	r.Run(120)
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(5, len(r.Errors))])
	}
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring did not absorb late joiner: %v", bad)
	}
}

func TestMessageLossStillConverges(t *testing.T) {
	r, err := NewRing(RingConfig{N: 6, Seed: 3, LossProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged under 5%% loss: %v", bad)
	}
}

func TestOracles(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4"}
	// TrueSuccessor of each member is another member and forms one cycle.
	seen := map[string]bool{}
	cur := "n1"
	for i := 0; i < len(members); i++ {
		cur = TrueSuccessor(cur, members)
		if seen[cur] {
			t.Fatalf("successor cycle revisits %s early", cur)
		}
		seen[cur] = true
	}
	if cur != "n1" {
		t.Errorf("cycle did not close: ended at %s", cur)
	}
	// TrueOwner of a member's own ID is that member.
	for _, m := range members {
		if got := TrueOwner(NodeID(m), members); got != m {
			t.Errorf("TrueOwner(ID(%s)) = %s", m, got)
		}
	}
}

func TestLookupEventShape(t *testing.T) {
	e := LookupEvent("n1", 42, "n2", 7)
	if e.Name != "lookup" || e.Loc() != "n1" ||
		e.Field(1).AsID() != 42 || e.Field(2).AsStr() != "n2" || e.Field(3).AsID() != 7 {
		t.Errorf("LookupEvent = %v", e)
	}
}

func TestProgramsParse(t *testing.T) {
	if got := len(Program().Rules()); got < 40 {
		t.Errorf("full program has %d rules", got)
	}
	if got := len(BuggyProgram().Rules()); got < 40 {
		t.Errorf("buggy program has %d rules", got)
	}
	// The buggy variant must contain the amnesia rules and not the
	// guard rules.
	buggy := BuggyProgram()
	labels := map[string]bool{}
	for _, r := range buggy.Rules() {
		labels[r.Label] = true
	}
	if !labels["fb1"] || !labels["fb2"] {
		t.Error("buggy program misses amnesia rules")
	}
	if labels["dg1"] {
		t.Error("buggy program must not carry the dead guard")
	}
}

func TestPartitionHealRejoin(t *testing.T) {
	r, err := NewRing(RingConfig{N: 6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("not converged: %v", bad)
	}
	// Sever n4 from everyone: it gets declared faulty ring-wide and the
	// ring heals around it.
	for _, a := range r.Addrs {
		if a != "n4" {
			r.Net.Partition("n4", a)
		}
	}
	r.Run(120)
	members := r.alive(map[string]bool{"n4": true})
	if bad := r.CheckRing(members); len(bad) > 0 {
		t.Fatalf("ring did not heal around partitioned node: %v", bad)
	}
	// Heal: n4 rejoins through the landmark within a faultyNode TTL.
	for _, a := range r.Addrs {
		if a != "n4" {
			r.Net.Heal("n4", a)
		}
	}
	r.Run(180)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("partitioned node did not reintegrate: %v", bad)
	}
}
