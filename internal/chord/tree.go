package chord

import (
	"fmt"
	"strconv"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// Aggregation-tree overlay: a K-ary tree over the ring's members that
// in-network aggregation rides (planner.ClusterAgg.Rewrite routes
// upward pushes along treeParent). The shape is deterministic — member
// i's canonical parent is member ((i-2)/K)+1, the K-ary-heap layout
// over the harness ranks — so tree fan-in is bounded by construction
// and two runs over the same membership build the same tree. What
// OverLog owns is liveness: each node heartbeats its canonical parent,
// reads back the parent's current nodeEpoch incarnation, and while the
// parent stays silent routes around it to its grandparent (the root
// for depth-1 nodes). The canonical parent keeps being probed, so a
// repaired parent is readopted one heartbeat after it answers again.
//
// Parent selection is table-driven state like everything else here:
// treeParent is an ordinary materialized table, queryable by forensic
// programs and joined by the generated aggregation strands.

// TreeConfig shapes the overlay.
type TreeConfig struct {
	// Fanout is K, the max children per canonical parent (default 4).
	Fanout int
	// Heartbeat is the parent-probe period in seconds (default 5). A
	// parent silent for TreeDeadFactor heartbeats is routed around.
	Heartbeat float64
}

// TreeDeadFactor scales Heartbeat into the silence threshold after
// which a child falls back to its grandparent. 3.5 tolerates three
// straight lost probes before declaring the parent dead, mirroring the
// ring's lastHeard policy.
const TreeDeadFactor = 3.5

// TreeQueryID is the query the overlay installs under on every node.
const TreeQueryID = "tree"

// TreeParentTableName is the overlay's parent-selection table; exported
// for deployers (matches planner.TreeParentTable).
const TreeParentTableName = "treeParent"

func (c TreeConfig) withDefaults() TreeConfig {
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5
	}
	return c
}

// TreeParentRank returns the canonical parent's rank for a node of the
// given 1-based rank: the K-ary-heap parent, with the root its own
// parent.
func TreeParentRank(rank, fanout int) int {
	if rank <= 1 {
		return 1
	}
	return (rank-2)/fanout + 1
}

// TreeAddr is the harness address of a rank ("n<rank>").
func TreeAddr(rank int) string { return fmt.Sprintf("n%d", rank) }

// TreeDepth returns the K-ary-heap depth of a rank (root = 0); the
// tree's convergence lag is proportional to the max depth.
func TreeDepth(rank, fanout int) int {
	d := 0
	for rank > 1 {
		rank = TreeParentRank(rank, fanout)
		d++
	}
	return d
}

// TreeProgram is the shared overlay source: heartbeat the canonical
// parent, record its ack (and epoch), and each tick pick the canonical
// parent if recently heard, else the grandparent fallback. The root
// probes itself through the same rules — the ack loops back locally —
// so no rule is root-specific. treeCanon/treeGrand/treeHeard are
// seeded per node by InstallTree.
func TreeProgram(cfg TreeConfig) *overlog.Program {
	cfg = cfg.withDefaults()
	hb := strconv.FormatFloat(cfg.Heartbeat, 'g', -1, 64)
	dead := strconv.FormatFloat(TreeDeadFactor*cfg.Heartbeat, 'g', -1, 64)
	src := fmt.Sprintf(`
materialize(treeCanon, infinity, 1, keys(1)).
materialize(treeGrand, infinity, 1, keys(1)).
materialize(treeParent, infinity, 1, keys(1)).
materialize(treeHeard, infinity, 1, keys(1)).

t1 treeTick@N(E) :- periodic@N(E, %s).
t2 treeProbe@P(N) :- treeTick@N(E), treeCanon@N(P).
t3 treeAck@C(P, AckEp) :- treeProbe@P(C), nodeEpoch@P(AckEp).
t4 treeHeard@N(P, AckEp, T) :- treeAck@N(P, AckEp), T := f_now().
t5 treeParent@N(P) :- treeTick@N(E), treeCanon@N(P), treeHeard@N(P2, Ep2, T), P == P2, TN := f_now(), (TN - T) < %s.
t6 treeParent@N(G) :- treeTick@N(E), treeCanon@N(P), treeGrand@N(G), treeHeard@N(P2, Ep2, T), P == P2, TN := f_now(), (TN - T) >= %s.
`, hb, dead, dead)
	return overlog.MustParse(src)
}

// InstallTree installs the overlay on one node as query TreeQueryID and
// seeds its rank-derived facts. Seeds go through SeedLocal, so a
// crash/rejoin replays them and the node reclaims its canonical place
// in the tree. compiled is TreeProgram(cfg) compiled with Node.Compile.
func InstallTree(n *engine.Node, cfg TreeConfig, rank int, compiled *engine.CompiledQuery) error {
	cfg = cfg.withDefaults()
	if rank < 1 {
		return fmt.Errorf("chord: tree rank must be >= 1, got %d", rank)
	}
	if _, err := n.InstallCompiledQuery(TreeQueryID, compiled); err != nil {
		return fmt.Errorf("chord: tree overlay: %w", err)
	}
	addr := n.Addr()
	parent := TreeAddr(TreeParentRank(rank, cfg.Fanout))
	grand := TreeAddr(TreeParentRank(TreeParentRank(rank, cfg.Fanout), cfg.Fanout))
	seeds := []tuple.Tuple{
		tuple.New("treeCanon", tuple.Str(addr), tuple.Str(parent)),
		tuple.New("treeGrand", tuple.Str(addr), tuple.Str(grand)),
		tuple.New("treeParent", tuple.Str(addr), tuple.Str(parent)),
		// A heard row at time zero: a booting node trusts its canonical
		// parent through the first silence window, while a late
		// rejoiner treats it as unverified until the first ack.
		tuple.New("treeHeard", tuple.Str(addr), tuple.Str(parent), tuple.Int(0), tuple.Float(0)),
	}
	for _, s := range seeds {
		n.SeedLocal(s)
	}
	return nil
}

// TreeParentOf reads a node's current parent choice ("" if none yet).
func (r *Ring) TreeParentOf(addr string) string {
	tb := r.Node(addr).Store().Get(TreeParentTableName)
	if tb == nil {
		return ""
	}
	out := ""
	tb.Scan(r.Sim.Now(), func(t tuple.Tuple) { out = t.Field(1).AsStr() })
	return out
}
