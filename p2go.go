// Package p2go is a Go reproduction of the system described in "Using
// Queries for Distributed Monitoring and Forensics" (Singh, Roscoe,
// Maniatis, Druschel — EuroSys 2006): the P2 declarative overlay engine
// extended with an introspection model, an execution-tracing facility,
// and a distributed continuous query processor, plus the Chord overlay
// and the paper's complete set of monitoring and forensics applications.
//
// Distributed algorithms are written in OverLog — a Datalog variant —
// compiled into per-node dataflow graphs, and executed by single-threaded
// node runtimes connected by a deterministic discrete-event network
// simulator. Monitoring queries (invariant checkers, oscillation
// detectors, consistency probes, execution profilers, Chandy-Lamport
// snapshots) are ordinary OverLog programs installable on-line on a
// running system.
//
// # Quick start
//
//	sim := p2go.NewSim()
//	net := p2go.NewNetwork(sim, p2go.NetworkConfig{Seed: 1})
//	n, _ := net.AddNode("n1")
//	prog := p2go.MustParse(`
//	    materialize(link, infinity, infinity, keys(1,2)).
//	    materialize(path, infinity, infinity, keys(1,2,3)).
//	    p0 path@A(B, [A, B], W) :- link@A(B, W).
//	    p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).
//	`)
//	_ = n.InstallProgram(prog)
//	net.Inject("n1", p2go.NewTuple("link", p2go.Str("n1"), p2go.Str("n2"), p2go.Int(1)))
//	net.Run(10)
//
// See the examples directory for runnable end-to-end scenarios: the
// quickstart above, the Chord ring with on-line monitors, forensic
// profiling of lookups, and consistent snapshots.
//
// This facade re-exports the library's layers:
//
//   - the OverLog language (Parse, MustParse, Program);
//   - the tuple model (Tuple, Value and constructors);
//   - the node runtime (Node) and simulated network (Sim, Network);
//   - Chord (InstallChord, NewChordRing) and every §3 monitoring
//     application (the Monitor* constructors);
//   - execution tracing (TraceConfig) and the §4 benchmark harness
//     (bench_test.go at the module root).
package p2go

import (
	"p2go/internal/chainrep"
	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// ---- Tuple model ----

// Tuple is an immutable named record; field 0 is its location specifier.
type Tuple = tuple.Tuple

// Value is a dynamically typed OverLog value.
type Value = tuple.Value

// NewTuple constructs a tuple (first field is the location).
func NewTuple(name string, fields ...Value) Tuple { return tuple.New(name, fields...) }

// Int, ID, Float, Str, Bool, List construct Values.
func Int(v int64) Value      { return tuple.Int(v) }
func ID(v uint64) Value      { return tuple.ID(v) }
func Float(v float64) Value  { return tuple.Float(v) }
func Str(v string) Value     { return tuple.Str(v) }
func Bool(v bool) Value      { return tuple.Bool(v) }
func List(vs ...Value) Value { return tuple.List(vs...) }

// ---- OverLog ----

// Program is a parsed OverLog program.
type Program = overlog.Program

// Parse parses OverLog source.
func Parse(src string) (*Program, error) { return overlog.Parse(src) }

// MustParse parses OverLog source and panics on error.
func MustParse(src string) *Program { return overlog.MustParse(src) }

// ---- Runtime ----

// Node is a P2 node: tables, compiled rule strands, timers, tracer.
type Node = engine.Node

// NodeMetrics holds a node's performance counters.
type NodeMetrics = metrics.Node

// TraceConfig tunes the execution tracer (§2.1).
type TraceConfig = trace.Config

// DefaultTraceConfig returns the prototype's tracing bounds.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// TraceStoreConfig tunes the durable trace store: the append-only,
// window-partitioned log the tracer writes through, so causal lineage
// survives table eviction and node restarts (set it on
// NetworkConfig/ChordRingConfig; tracing must be enabled too).
type TraceStoreConfig = tracestore.Config

// DefaultTraceStoreConfig returns the store's default rotation and
// retention budget.
func DefaultTraceStoreConfig() TraceStoreConfig { return tracestore.DefaultConfig() }

// TraceStore is one node's durable trace log (Node.TraceStore; nil when
// not configured).
type TraceStore = tracestore.Store

// TraceView is a read-only investigation session over a set of node
// stores: Ancestors, Descendants, FlowChain, Execs, Events.
type TraceView = tracestore.View

// NewTraceView opens an investigation over per-node stores; records
// before since are invisible and older windows are never decoded.
func NewTraceView(stores map[string]*TraceStore, since float64) *TraceView {
	return tracestore.NewView(stores, since)
}

// Lineage is a causal walk's answer: exec edges plus cross-node hops.
type Lineage = tracestore.Lineage

// Investigate parses and runs one textual forensic query (e.g.
// "ancestors of 41 at n3 depth 4") against a view.
func Investigate(query string, v *TraceView) (*tracestore.Result, error) {
	return tracestore.Investigate(query, v)
}

// Sim is the discrete-event scheduler.
type Sim = simnet.Sim

// NewSim creates a simulator at virtual time zero.
func NewSim() *Sim { return simnet.NewSim() }

// Network connects nodes over simulated FIFO links.
type Network = simnet.Network

// NetworkConfig configures delays, loss, tracing, and hooks.
type NetworkConfig = simnet.Config

// NewNetwork creates a network on the simulator.
func NewNetwork(s *Sim, cfg NetworkConfig) *Network { return simnet.NewNetwork(s, cfg) }

// ---- Chord ----

// InstallChord loads the Chord program and seed state onto a node.
func InstallChord(n *Node, landmark string) error { return chord.Install(n, landmark) }

// ChordNodeID is the ring identifier of an address.
func ChordNodeID(addr string) uint64 { return chord.NodeID(addr) }

// ChordRing is a ready-made simulated Chord deployment.
type ChordRing = chord.Ring

// ChordRingConfig configures NewChordRing.
type ChordRingConfig = chord.RingConfig

// NewChordRing builds an N-node Chord network (addresses n1..nN).
func NewChordRing(cfg ChordRingConfig) (*ChordRing, error) { return chord.NewRing(cfg) }

// ChordLookupEvent builds a lookup event tuple for injection.
func ChordLookupEvent(addr string, k uint64, reqAddr string, e uint64) Tuple {
	return chord.LookupEvent(addr, k, reqAddr, e)
}

// WatchProgram returns a program watching the given predicates.
func WatchProgram(names ...string) *Program { return chord.WatchProgram(names...) }

// ---- Monitoring applications (§3) ----

// MonitorRingProbes returns the active ring well-formedness checker
// (rp1-rp3 plus the symmetric successor check), probing every tProbe
// seconds.
func MonitorRingProbes(tProbe float64) *Program { return monitor.RingProbeProgram(tProbe) }

// MonitorRingPassive returns the passive ring checker (rp4).
func MonitorRingPassive() *Program { return monitor.RingPassiveProgram() }

// MonitorOrderingOpportunistic returns the opportunistic ID-ordering
// check (ri1).
func MonitorOrderingOpportunistic() *Program { return monitor.OrderingOpportunisticProgram() }

// MonitorOrderingTraversal returns the token-passing wrap-around
// traversal (ri2-ri7); inject an orderingEvent to start a traversal.
func MonitorOrderingTraversal() *Program { return monitor.OrderingTraversalProgram() }

// MonitorOscillation returns the state-oscillation detectors (os1-os9).
func MonitorOscillation() *Program { return monitor.OscillationProgram() }

// MonitorConsistency returns the proactive routing-consistency probe
// (cs1-cs12) with the given probe period in seconds.
func MonitorConsistency(period float64) *Program { return monitor.ConsistencyProgram(period) }

// MonitorProfiler returns the execution profiler (ep1-ep6) stopping at
// the named rule; requires tracing enabled.
func MonitorProfiler(stopRule string) *Program {
	return overlog.MustParse(monitor.ProfilerRules(stopRule))
}

// InstallSnapshot installs the Chandy-Lamport snapshot machinery
// (bp1-bp2, sr-rules) on a node; tSnapFreq > 0 makes it a periodic
// initiator.
func InstallSnapshot(n *Node, tSnapFreq float64) error {
	return monitor.InstallSnapshot(n, tSnapFreq)
}

// MonitorSnapshotLookups returns the snapshot-lookup rules (l1s-l3s).
func MonitorSnapshotLookups() *Program { return monitor.SnapshotLookupProgram() }

// MonitorSnapshotConsistency returns the consistency probe running over
// consistent snapshots (cs4s/cs5s variant).
func MonitorSnapshotConsistency(period float64) *Program {
	return monitor.SnapshotConsistencyProgram(period)
}

// ProfileReport decodes profiler report tuples.
type ProfileReport = monitor.ProfileReport

// ParseProfileReport decodes a report@N(ID, RuleT, NetT, LocalT) tuple.
func ParseProfileReport(t Tuple) (ProfileReport, error) { return monitor.ParseReport(t) }

// RuleExecRow is a decoded ruleExec reflection row (§2.1).
type RuleExecRow = monitor.RuleExecRow

// RuleExecRows reads a node's ruleExec table (empty when tracing is off).
func RuleExecRows(n *Node) []RuleExecRow { return monitor.RuleExecRows(n) }

// FindTracedTuples returns the local IDs of memoized tuples with the
// given predicate name on a traced node — the forensic entry point for
// the profiler.
func FindTracedTuples(n *Node, name string) []uint64 {
	return monitor.FindTracedTuples(n, name)
}

// TupleArrivalTime finds when the identified tuple was consumed as a
// rule input on the node.
func TupleArrivalTime(n *Node, tupleID uint64) (float64, bool) {
	return monitor.ArrivalTime(n, tupleID)
}

// TraceRespEvent builds the traceResp event starting a backward profiler
// traversal for the identified tuple.
func TraceRespEvent(addr string, tupleID uint64, at float64) Tuple {
	return monitor.TraceRespEvent(addr, tupleID, at)
}

// SnapState reads a node's current (snapshot ID, phase).
func SnapState(n *Node) (int64, string) { return monitor.SnapState(n) }

// SnappedBestSucc reads the successor recorded in a snapshot at a node.
func SnappedBestSucc(n *Node, snapID int64) string {
	return monitor.SnappedBestSucc(n, snapID)
}

// ---- Chain replication (§3.4 generality substrate) ----

// InstallChainRep loads the chain-replication protocol and its monitors
// onto a node; next is the downstream replica ("-" for the tail).
func InstallChainRep(n *Node, next string) error { return chainrep.Install(n, next) }

// ChainPut / ChainGet build client requests for the chain.
func ChainPut(head, key, val string, reqID uint64, client string) Tuple {
	return chainrep.Put(head, key, val, reqID, client)
}

// ChainGet builds a read request for the chain's tail.
func ChainGet(tail, key string, reqID uint64, client string) Tuple {
	return chainrep.Get(tail, key, reqID, client)
}

// ChainLenEvent starts a chain-length traversal; ChainAuditEvent starts
// a replica-divergence audit for one key.
func ChainLenEvent(head string, e uint64) Tuple { return chainrep.LenEvent(head, e) }

// ChainAuditEvent starts a replica-divergence audit for one key.
func ChainAuditEvent(head, key string, e uint64) Tuple {
	return chainrep.AuditEvent(head, key, e)
}

// ---- Causal lineage (§3.4 extension) ----

// MonitorLineage returns the full causal-DAG traversal rules: inject
// TraceLineageEvent and collect lineage edges at the origin. maxDepth
// bounds the branching recursion.
func MonitorLineage(maxDepth int) *Program {
	return overlog.MustParse(monitor.LineageRules(maxDepth))
}

// LineageEdge is one decoded causal edge.
type LineageEdge = monitor.LineageEdge

// ParseLineageEdge decodes a lineage tuple.
func ParseLineageEdge(t Tuple) (LineageEdge, error) { return monitor.ParseLineage(t) }

// TraceLineageEvent starts a lineage traversal for a traced tuple.
func TraceLineageEvent(addr string, tupleID uint64) Tuple {
	return monitor.TraceLineageEvent(addr, tupleID)
}

// FormatLineage renders collected edges as an indented causal tree.
func FormatLineage(origin *Node, edges []LineageEdge) string {
	return monitor.LineageSummary(origin, edges)
}
