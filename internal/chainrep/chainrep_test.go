package chainrep

import (
	"fmt"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/tuple"
)

// chain builds an N-node chain c1 -> c2 -> ... -> cN plus a client node.
type chain struct {
	t       *testing.T
	sim     *simnet.Sim
	net     *simnet.Network
	nodes   []string
	watched []tuple.Tuple
}

func newChain(t *testing.T, n int) *chain {
	t.Helper()
	c := &chain{t: t, sim: simnet.NewSim()}
	c.net = simnet.NewNetwork(c.sim, simnet.Config{
		Seed: 5,
		OnWatch: func(now float64, node string, tp tuple.Tuple) {
			c.watched = append(c.watched, tp.Clone())
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			t.Errorf("rule error %s/%s: %v", node, ruleID, err)
		},
	})
	for i := 1; i <= n; i++ {
		c.nodes = append(c.nodes, fmt.Sprintf("c%d", i))
	}
	for i, addr := range c.nodes {
		nd, err := c.net.AddNode(addr)
		if err != nil {
			t.Fatal(err)
		}
		next := "-"
		if i+1 < n {
			next = c.nodes[i+1]
		}
		if err := Install(nd, next); err != nil {
			t.Fatal(err)
		}
	}
	// The client observes acks and results via watches.
	cl, err := c.net.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"putAck", "getResult", "getMiss"} {
		prog := fmt.Sprintf("watch(%s).\n", w)
		if err := cl.InstallProgram(mustParse(t, prog)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func mustParse(t *testing.T, src string) *overlog.Program {
	t.Helper()
	p, err := overlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (c *chain) head() string { return c.nodes[0] }
func (c *chain) tail() string { return c.nodes[len(c.nodes)-1] }

func (c *chain) inject(addr string, tp tuple.Tuple) {
	c.t.Helper()
	if err := c.net.Inject(addr, tp); err != nil {
		c.t.Fatal(err)
	}
}

func (c *chain) count(name string) int {
	n := 0
	for _, w := range c.watched {
		if w.Name == name {
			n++
		}
	}
	return n
}

func TestWriteReplicatesAndAcks(t *testing.T) {
	c := newChain(t, 4)
	c.inject(c.head(), Put(c.head(), "k", "v1", 1, "client"))
	c.net.RunFor(2)
	for _, addr := range c.nodes {
		if got := StoreValue(c.net.Node(addr), "k"); got != "v1" {
			t.Errorf("%s store[k] = %q, want v1", addr, got)
		}
	}
	if c.count("putAck") != 1 {
		t.Errorf("putAck count = %d, want 1 (from the tail only)", c.count("putAck"))
	}
}

func TestReadAtTail(t *testing.T) {
	c := newChain(t, 3)
	c.inject(c.head(), Put(c.head(), "k", "v2", 1, "client"))
	c.net.RunFor(2)
	c.inject(c.tail(), Get(c.tail(), "k", 2, "client"))
	c.inject(c.tail(), Get(c.tail(), "nope", 3, "client"))
	c.net.RunFor(2)
	var hitVal string
	misses := 0
	for _, w := range c.watched {
		switch w.Name {
		case "getResult":
			hitVal = w.Field(2).AsStr()
		case "getMiss":
			misses++
		}
	}
	if hitVal != "v2" {
		t.Errorf("getResult value = %q, want v2", hitVal)
	}
	if misses != 1 {
		t.Errorf("getMiss count = %d, want 1", misses)
	}
}

func TestChainLengthTraversal(t *testing.T) {
	c := newChain(t, 5)
	c.inject(c.head(), LenEvent(c.head(), 9))
	c.net.RunFor(2)
	var got int64 = -1
	for _, w := range c.watched {
		if w.Name == "chainLen" {
			got = w.Field(2).AsInt()
		}
	}
	if got != 5 {
		t.Errorf("chainLen = %d, want 5", got)
	}
	// Break the chain: crash a middle node; the traversal stalls and no
	// chainLen report returns (the detectable symptom).
	before := c.count("chainLen")
	c.net.Crash(c.nodes[2])
	c.inject(c.head(), LenEvent(c.head(), 10))
	c.net.RunFor(2)
	if c.count("chainLen") != before {
		t.Error("broken chain must not report a length")
	}
}

func TestDivergenceAudit(t *testing.T) {
	c := newChain(t, 4)
	c.inject(c.head(), Put(c.head(), "k", "v1", 1, "client"))
	c.net.RunFor(2)
	// Clean audit first.
	c.inject(c.head(), AuditEvent(c.head(), "k", 1))
	c.net.RunFor(2)
	if c.count("divergence") != 0 {
		t.Fatalf("healthy chain flagged divergence")
	}
	if c.count("auditDone") != 1 {
		t.Fatalf("audit did not reach the tail")
	}
	// Corrupt replica 3 (bit-rot / buggy apply) and audit again.
	c.inject(c.nodes[2], tuple.New("store",
		tuple.Str(c.nodes[2]), tuple.Str("k"), tuple.Str("CORRUPT")))
	c.net.RunFor(1)
	c.inject(c.head(), AuditEvent(c.head(), "k", 2))
	c.net.RunFor(2)
	if c.count("divergence") != 1 {
		t.Errorf("divergence count = %d, want 1", c.count("divergence"))
	}
	for _, w := range c.watched {
		if w.Name == "divergence" {
			if w.Field(4).AsStr() != "CORRUPT" || w.Field(5).AsStr() != c.nodes[2] {
				t.Errorf("divergence report = %v", w)
			}
		}
	}
}

func TestWriteStallsAcrossCrashedNode(t *testing.T) {
	c := newChain(t, 4)
	c.net.Crash(c.nodes[1])
	c.inject(c.head(), Put(c.head(), "k", "v1", 1, "client"))
	c.net.RunFor(2)
	// The head applied the write; nodes past the crash did not, and no
	// ack is produced — the failure is visible, as static chains are.
	if got := StoreValue(c.net.Node(c.head()), "k"); got != "v1" {
		t.Errorf("head store = %q", got)
	}
	if got := StoreValue(c.net.Node(c.nodes[2]), "k"); got != "" {
		t.Errorf("node past crash has %q, want empty", got)
	}
	if c.count("putAck") != 0 {
		t.Error("no ack must be produced across a crashed replica")
	}
}

// TestChainProgramsParse pins the rule sets.
func TestChainProgramsParse(t *testing.T) {
	if got := len(Program().Rules()); got != 7 {
		t.Errorf("protocol rules = %d", got)
	}
	if got := len(MonitorProgram().Rules()); got != 8 {
		t.Errorf("monitor rules = %d", got)
	}
}

// TestOverwriteFlowsDownChain: a second put for the same key replaces
// the value on every replica (keyed store semantics down the chain).
func TestOverwriteFlowsDownChain(t *testing.T) {
	c := newChain(t, 3)
	c.inject(c.head(), Put(c.head(), "k", "v1", 1, "client"))
	c.net.RunFor(2)
	c.inject(c.head(), Put(c.head(), "k", "v2", 2, "client"))
	c.net.RunFor(2)
	for _, addr := range c.nodes {
		if got := StoreValue(c.net.Node(addr), "k"); got != "v2" {
			t.Errorf("%s store[k] = %q, want v2", addr, got)
		}
	}
	if c.count("putAck") != 2 {
		t.Errorf("acks = %d, want 2", c.count("putAck"))
	}
}
