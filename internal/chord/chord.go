// Package chord implements the Chord distributed lookup service as an
// OverLog program over the P2 engine — the application every monitoring
// example in §3 of the paper is demonstrated against. The rule set is
// adapted from the P2 Chord of Loo et al. (SOSP 2005) that the paper
// builds on: successor/predecessor maintenance with periodic
// stabilization, finger tables fixed one position at a time with eager
// fill, liveness pings with failure detection, and the l1-l3 lookup rules
// quoted in §3.3 of the paper.
//
// Identifiers live on a 64-bit ring; a node's ID is the hash of its
// address (NodeID).
package chord

import (
	"fmt"
	"sync"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// Timing parameters, matching the paper's evaluation setup (§4): "Nodes
// fix fingers every 10 sec, stabilize every 5 sec, and ping neighbors for
// liveness every 5 sec."
const (
	StabilizePeriod = 5
	FingerPeriod    = 10
	PingPeriod      = 5
	JoinRetryPeriod = 3
	NumSuccessors   = 4
)

// Rules is the Chord OverLog program.
//
// Schema (first field is always the node's own address):
//
//	node(NAddr, NID)                 this node's ring identifier
//	landmark(NAddr, LAddr)           bootstrap node
//	succ(NAddr, SID, SAddr)          successor candidates (keyed by SID)
//	bestSucc(NAddr, SID, SAddr)      immediate successor
//	pred(NAddr, PID, PAddr)          immediate predecessor ("-" = none)
//	finger(NAddr, I, FID, FAddr)     finger at position I (target NID+2^I)
//	uniqueFinger(NAddr, FAddr, FID)  distinct routing neighbors
//	pingNode(NAddr, PAddr)           liveness-ping targets
//	lastHeard(NAddr, PAddr, T)       freshness per ping target
//	faultyNode(NAddr, FAddr, T)      recently declared-dead neighbors
//
// Events: lookup(NAddr, K, ReqAddr, E) and
// lookupResults(ReqAddr, K, SID, SAddr, E, RespAddr) as in §3.3.
const Rules = `
/* ---------------- state ---------------- */
materialize(node, infinity, 1, keys(1)).
materialize(landmark, infinity, 1, keys(1)).
materialize(succ, 30, 16, keys(2)).
materialize(pred, infinity, 1, keys(1)).
materialize(bestSucc, infinity, 1, keys(1)).
materialize(finger, 180, 64, keys(2)).
materialize(uniqueFinger, 180, 64, keys(2)).
materialize(nextFingerFix, infinity, 1, keys(1)).
materialize(fingerLookup, 60, 16, keys(2)).
materialize(pingNode, 12, 48, keys(2)).
materialize(lastHeard, 60, 48, keys(2)).
materialize(faultyNode, 30, 16, keys(2)).

/* ---------------- join ----------------
   While a node has no successor candidates it (re)joins through the
   landmark: a lookup for its own ID whose result becomes its successor.
   The landmark itself bootstraps a one-node ring. */
j1 succCount@N(count<*>) :- periodic@N(E, 3), succ@N(SID, SAddr).
j2 joinEvent@N(E) :- succCount@N(C), C == 0, E := f_rand().
j3 joinReq@L(N, NID, E) :- joinEvent@N(E), node@N(NID), landmark@N(L), L != N.
j4 succ@N(NID, N) :- joinEvent@N(E), node@N(NID), landmark@N(L), L == N.
j5 lookup@L(NID, N, E) :- joinReq@L(N, NID, E).
j6 succ@N(SID, SAddr) :- lookupResults@N(K, SID, SAddr, E, RespAddr), node@N(NID), K == NID.

/* ---------------- best successor ----------------
   bestSucc is the successor candidate at the smallest clockwise distance.
   Recomputed on every succ change and periodically (the periodic variant
   repairs staleness after deletions, which fire no deltas). */
bs1 bestSuccDist@N(min<D>) :- succ@N(SID, SAddr), node@N(NID), D := SID - NID - 1.
bs2 bestSuccDist@N(min<D>) :- periodic@N(E, 5), succ@N(SID, SAddr), node@N(NID), D := SID - NID - 1.
bs3 bestSucc@N(SID, SAddr) :- bestSuccDist@N(D), succ@N(SID, SAddr), node@N(NID), D == SID - NID - 1.

/* ---------------- stabilization (paper §3.1.1) ----------------
   Ask the successor for its predecessor and successor list; notify it of
   ourselves so it can adopt us as predecessor. */
sb1 stabilizeEvent@N(E) :- periodic@N(E, 5).
sb2 stabilizeRequest@SAddr(N) :- stabilizeEvent@N(E), bestSucc@N(SID, SAddr).
sb3 sendPred@ReqAddr(PID, PAddr) :- stabilizeRequest@N(ReqAddr), pred@N(PID, PAddr), PAddr != "-".
sb4 succ@N(SID, SAddr) :- sendPred@N(SID, SAddr).
sb5 reqSuccList@SAddr(N) :- stabilizeEvent@N(E), bestSucc@N(SID, SAddr).
sb6 returnSucc@ReqAddr(SID, SAddr) :- reqSuccList@N(ReqAddr), succ@N(SID, SAddr).
sb7 succ@N(SID, SAddr) :- returnSucc@N(SID, SAddr).
/* The response also refreshes the successor itself: without this the
   bestSucc entry's TTL would never be renewed (its owner never appears
   in its own successor list) and the ring would oscillate every 30 s. */
sb8 returnSucc@ReqAddr(NID, N) :- reqSuccList@N(ReqAddr), node@N(NID).

nt1 notify@SAddr(N, NID) :- stabilizeEvent@N(E), node@N(NID), bestSucc@N(SID, SAddr), SAddr != N.
nt2 pred@N(NID2, NAddr2) :- notify@N(NAddr2, NID2), node@N(NID), pred@N(PID, PAddr), (PAddr == "-") || (NID2 in (PID, NID)), NAddr2 != N.

/* Keep the successor list bounded: periodically evict the farthest
   candidate while more than NumSuccessors remain. */
ev1 succEvCount@N(count<*>) :- periodic@N(E, 7), succ@N(SID, SAddr).
ev2 evictSucc@N(E) :- succEvCount@N(C), C > 4, E := f_rand().
ev3 maxSuccDist@N(max<D>) :- evictSucc@N(E), succ@N(SID, SAddr), node@N(NID), D := SID - NID - 1.
ev4 delete succ@N(SID, SAddr) :- maxSuccDist@N(D), succ@N(SID, SAddr), node@N(NID), D == SID - NID - 1.

/* ---------------- lookups (paper §3.3, rules l1-l3) ----------------
   l2/l3 route over the raw position-keyed finger table, exactly as the
   paper's listing does. Because eager fill places the same node at many
   positions, l3 emits one forward per matching row: lookups amplify at
   every hop. At the end of the 1000-host join's first 40 virtual s
   (seed 42), 86.9 % of the 519 587 messages queued on its 21 busy
   hosts repeat, byte for byte, the one queued just before them from
   the same sender (simnet queues each as a 10-byte record). This is
   faithful to P2 (and is the dominant cost behind Figure 6's
   superlinear CPU); uniqueFinger exists for the consistency probe (cs2)
   and as a routing fallback toward the best successor. */
l1 lookupResults@ReqAddr(K, SID, SAddr, E, N) :- node@N(NID), lookup@N(K, ReqAddr, E), bestSucc@N(SID, SAddr), K in (NID, SID].
l2 bestLookupDist@N(K, ReqAddr, E, min<D>) :- node@N(NID), lookup@N(K, ReqAddr, E), finger@N(I, FID, FAddr), D := K - FID - 1, FID in (NID, K).
l3 lookup@FAddr(K, ReqAddr, E) :- bestLookupDist@N(K, ReqAddr, E, D), finger@N(I, FID, FAddr), node@N(NID), D == K - FID - 1, FID in (NID, K).
/* Progress guarantee while fingers are empty: forward along the ring. */
l4 fingerCount@N(K, ReqAddr, E, count<*>) :- lookup@N(K, ReqAddr, E), node@N(NID), finger@N(I, FID, FAddr), FID in (NID, K).
l5 lookup@SAddr(K, ReqAddr, E) :- fingerCount@N(K, ReqAddr, E, C), C == 0, node@N(NID), bestSucc@N(SID, SAddr), K in (SID, NID], SAddr != N.

/* uniqueFinger holds distinct routing targets: every finger plus the
   best successor (which guarantees lookup progress along the ring even
   before fingers converge). Periodic variants refresh TTLs. */
uf1 uniqueFinger@N(FAddr, FID) :- finger@N(I, FID, FAddr).
uf2 uniqueFinger@N(SAddr, SID) :- bestSucc@N(SID, SAddr), SAddr != N.
uf3 uniqueFinger@N(FAddr, FID) :- periodic@N(E, 30), finger@N(I, FID, FAddr).
uf4 uniqueFinger@N(SAddr, SID) :- periodic@N(E, 5), bestSucc@N(SID, SAddr), SAddr != N.

/* ---------------- finger maintenance ----------------
   Fix one finger position per period via a lookup for NID + 2^I, with
   eager fill of the positions the result also covers (P2's optimization:
   a finger owning (NID, FID] serves every position whose target falls in
   that arc). Only the top half of the 64-bit position space is
   maintained: for any plausible network size, targets below 2^32 fall
   within the immediate successor's arc, so those positions would all
   duplicate bestSucc. This keeps the per-finger position duplication
   (and hence P2's lookup amplification) at the level of the paper's
   32-bit prototype. */
ff1 fixFinger@N(E, I) :- periodic@N(E, 10), nextFingerFix@N(I).
ff2 fingerLookup@N(E, I) :- fixFinger@N(E, I).
ff3 lookup@N(K, N, E) :- fixFinger@N(E, I), node@N(NID), K := NID + (1 << I).
ff4 fingerFill@N(I, BID, BAddr) :- lookupResults@N(K, BID, BAddr, E, RespAddr), fingerLookup@N(E, I).
ff5 finger@N(I, BID, BAddr) :- fingerFill@N(I, BID, BAddr).
ff6 fingerFill@N(I2, BID, BAddr) :- fingerFill@N(I, BID, BAddr), node@N(NID), I2 := I + 1, I2 < 64, K2 := NID + (1 << I2), K2 in (NID, BID].
ff7 nextFingerFix@N(I2) :- fingerFill@N(I, BID, BAddr), I2 := 32 + ((I + 1) % 32).
ff8 delete fingerLookup@N(E, I) :- fingerFill@N(I, BID, BAddr), fingerLookup@N(E, I).

/* ---------------- liveness pings and failure detection ---------------- */
pn1 pingNode@N(SAddr) :- periodic@N(E, 5), succ@N(SID, SAddr), SAddr != N.
pn2 pingNode@N(PAddr) :- periodic@N(E, 5), pred@N(PID, PAddr), PAddr != "-", PAddr != N.
pn3 pingNode@N(FAddr) :- periodic@N(E, 5), uniqueFinger@N(FAddr, FID), FAddr != N.

pp1 pingEvent@N(E) :- periodic@N(E, 5).
pp2 pingReq@PAddr(N, E) :- pingEvent@N(E), pingNode@N(PAddr).
pp4 pingResp@RAddr(N) :- pingReq@N(RAddr, E).

/* lastHeard tracks freshness per neighbor: seeded on first contact
   (pingNode delta) and renewed by ping responses. A neighbor is faulty
   after >17 s of silence (three to four missed 5 s pings), which keeps
   isolated message loss from producing false positives. */
ph1 lastHeard@N(PAddr, T) :- pingNode@N(PAddr), T := f_now().
ph2 lastHeard@N(PAddr, T) :- pingResp@N(PAddr), T := f_now().

fd1 faultyNode@N(PAddr, T) :- periodic@N(E, 5), pingNode@N(PAddr), lastHeard@N(PAddr, T0), T0 < f_now() - 17, T := f_now().
fd3 delete succ@N(SID, SAddr) :- faultyNode@N(SAddr, T), succ@N(SID, SAddr).
fd4 delete finger@N(I, FID, FAddr) :- faultyNode@N(FAddr, T), finger@N(I, FID, FAddr).
fd5 delete uniqueFinger@N(FAddr, FID) :- faultyNode@N(FAddr, T), uniqueFinger@N(FAddr, FID).
fd6 delete bestSucc@N(SID, SAddr) :- faultyNode@N(SAddr, T), bestSucc@N(SID, SAddr).
fd7 pred@N(0, "-") :- faultyNode@N(PAddr, T), pred@N(PID, PAddr).
fd8 delete pingNode@N(PAddr) :- faultyNode@N(PAddr, T), pingNode@N(PAddr).
`

// DeadGuardRules implement "remembering recently deceased neighbors",
// the fix §3.1.3 prescribes for the recycled dead neighbor problem:
// while a neighbor remains in faultyNode (30 s), gossip that reintroduces
// it (sb4/sb7 inserts from other nodes' stale state) is swept back out.
// Installing Chord WITHOUT these rules produces exactly the
// remove/reinsert oscillation the paper's os1-os9 detectors catch.
const DeadGuardRules = `
dg1 delete succ@N(SID, SAddr) :- periodic@N(E, 2), faultyNode@N(SAddr, T), succ@N(SID, SAddr).
dg2 delete finger@N(I, FID, FAddr) :- periodic@N(E, 2), faultyNode@N(FAddr, T), finger@N(I, FID, FAddr).
dg3 delete uniqueFinger@N(FAddr, FID) :- periodic@N(E, 2), faultyNode@N(FAddr, T), uniqueFinger@N(FAddr, FID).
dg4 delete bestSucc@N(SID, SAddr) :- periodic@N(E, 2), faultyNode@N(SAddr, T), bestSucc@N(SID, SAddr).
dg5 delete pingNode@N(PAddr) :- periodic@N(E, 2), faultyNode@N(PAddr, T), pingNode@N(PAddr).
`

// NodeID returns the ring identifier for an address: the engine's value
// hash of the address string (what f_hash(N) computes in OverLog).
func NodeID(addr string) uint64 { return tuple.Str(addr).Hash() }

// Program parses the full Chord rule set including the dead-neighbor
// guard (panics on internal error; the rules are compile-time constants).
func Program() *overlog.Program { return overlog.MustParse(Rules + DeadGuardRules) }

// BuggyAmnesiaRules model the root cause of §3.1.3's recycled dead
// neighbor problem: the implementation forgets that a neighbor was
// declared dead. Wiping lastHeard on a faulty declaration gives any
// gossip-reinserted copy of the neighbor a fresh acceptance window, so
// the node oscillates between removing and re-adopting it.
// (Note that the delta rewrite of fd3-fd8 already acts as a guard: a
// gossip reinsert of a dead neighbor re-joins the remembered faultyNode
// row and is deleted on the spot. Forgetting therefore requires wiping
// BOTH the faultyNode row and the neighbor's lastHeard freshness.)
const BuggyAmnesiaRules = `
fb1 delete lastHeard@N(PAddr, T) :- faultyNode@N(PAddr, T2), lastHeard@N(PAddr, T).
fb2 delete faultyNode@N(PAddr, T) :- faultyNode@N(PAddr, T).
`

// BuggyProgram parses Chord WITHOUT the dead-neighbor guard and WITH the
// amnesia bug: the incorrect implementation of §3.1.3 that oscillates
// between removing and reinserting a deceased neighbor. The monitor
// package's oscillation detectors are demonstrated against it.
func BuggyProgram() *overlog.Program { return overlog.MustParse(Rules + BuggyAmnesiaRules) }

// The Chord programs are compile-time constants, so they are parsed and
// planned exactly once per process and every ring node instantiates the
// same immutable plans ("plan once, instantiate N times") — the memory
// and install-time win that makes 1k-10k node rings viable. A node whose
// store or label counter differs from the fresh node the programs
// compile on recompiles them itself, with bit-identical results.
var (
	compileOnce     sync.Once
	compiledGood    *engine.CompiledQuery
	compiledBuggy   *engine.CompiledQuery
	compileGoodErr  error
	compileBuggyErr error
)

func compilePrograms() {
	compiledGood, compileGoodErr = engine.CompileQuery(Program())
	compiledBuggy, compileBuggyErr = engine.CompileQuery(BuggyProgram())
}

// Compiled returns the process-wide shared compilation of the full
// Chord program (Rules + DeadGuardRules).
func Compiled() (*engine.CompiledQuery, error) {
	compileOnce.Do(compilePrograms)
	return compiledGood, compileGoodErr
}

// CompiledBuggy returns the shared compilation of the buggy variant.
func CompiledBuggy() (*engine.CompiledQuery, error) {
	compileOnce.Do(compilePrograms)
	return compiledBuggy, compileBuggyErr
}

// Install loads the Chord program onto a node and seeds its base state:
// its own identity, the landmark pointer, an empty predecessor, and the
// finger-fix cursor. The node joins the ring autonomously once the driver
// starts delivering timers.
func Install(n *engine.Node, landmark string) error {
	cq, err := Compiled()
	if err != nil {
		return fmt.Errorf("chord: %w", err)
	}
	return installCompiled(n, cq, landmark)
}

// InstallBuggy loads the oscillation-prone Chord variant (see
// BuggyProgram).
func InstallBuggy(n *engine.Node, landmark string) error {
	cq, err := CompiledBuggy()
	if err != nil {
		return fmt.Errorf("chord: %w", err)
	}
	return installCompiled(n, cq, landmark)
}

// QueryID is the query name the Chord overlay program is installed
// under on every node (the substrate monitoring queries deploy against).
const QueryID = "chord"

func installCompiled(n *engine.Node, cq *engine.CompiledQuery, landmark string) error {
	if _, err := n.InstallCompiledQuery(QueryID, cq); err != nil {
		return fmt.Errorf("chord: %w", err)
	}
	addr := n.Addr()
	seeds := []tuple.Tuple{
		tuple.New("node", tuple.Str(addr), tuple.ID(NodeID(addr))),
		tuple.New("landmark", tuple.Str(addr), tuple.Str(landmark)),
		tuple.New("pred", tuple.Str(addr), tuple.Int(0), tuple.Str("-")),
		tuple.New("nextFingerFix", tuple.Str(addr), tuple.Int(32)),
	}
	// SeedLocal (not HandleLocal) records these as the node's preamble,
	// so a restart with soft-state loss re-bootstraps from the same
	// identity and landmark pointer and rejoins the ring autonomously.
	for _, s := range seeds {
		n.SeedLocal(s)
	}
	return nil
}

// LookupEvent builds a lookup event tuple for key k, to be injected at
// node addr with results returned to reqAddr under request ID e.
func LookupEvent(addr string, k uint64, reqAddr string, e uint64) tuple.Tuple {
	return tuple.New("lookup",
		tuple.Str(addr), tuple.ID(k), tuple.Str(reqAddr), tuple.ID(e))
}
