// Package engine implements the P2 node runtime: a single-threaded
// dataflow executor that owns a soft-state store, compiled rule strands,
// periodic timers, the execution tracer, and the network pre/postamble.
//
// A node is entirely passive: a driver (the discrete-event simulator in
// internal/simnet, or a real-time runner) delivers messages, timer firings
// and sweeps, each of which runs one "task" — the full cascade of rule
// activations triggered by that stimulus — and returns the simulated CPU
// cost, which the driver uses to model the node as a single-server queue.
//
// Programs are installed as first-class queries: every strand, timer,
// watch and table declaration carries the ID of the query that created
// it, installation is atomic (a program that fails to validate installs
// nothing), shared resources are reference-counted across queries, and
// UninstallQuery tears down exactly one query's slice of the dataflow
// graph, returning the node to its prior shape. CPU is billed per query,
// with costs not attributable to any query (the network pre/postamble,
// sweeps, restarts) under the reserved "system" query.
package engine

import (
	"fmt"
	"slices"

	"p2go/internal/dataflow"
	"p2go/internal/metrics"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/rng"
	"p2go/internal/table"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// NodeEpochTableName is the engine-owned single-row table
// nodeEpoch(NAddr, Epoch) holding the node's process incarnation.
// It exists from birth like the reflection tables, so any OverLog
// program can join it without declaring it — the aggregation-tree
// protocol stamps its heartbeats and partial aggregates with it. Unlike
// them it is an ordinary table: Rejoin queues its new row through the
// dataflow, so maintained aggregates over it see the change.
const NodeEpochTableName = "nodeEpoch"

// InstallEventName is the higher-order installation event (§1.3: "the
// system can be programmed to react to events by installing new triggers
// itself"). A rule head installProgram@N(Source) causes the OverLog text
// in Source to be parsed and installed on node N, on-line, as a fresh
// query with a generated ID; installProgram@N(Source, QueryID) installs
// it under the given name.
const InstallEventName = "installProgram"

// UninstallEventName is the higher-order removal event: a rule head
// uninstallProgram@N(QueryID) removes the named query from node N —
// autonomic retirement of monitoring queries, the inverse of
// installProgram.
const UninstallEventName = "uninstallProgram"

// SystemQuery is the reserved query ID absorbing costs not attributable
// to any installed query (re-exported from metrics for callers).
const SystemQuery = metrics.SystemQuery

// maxCascade bounds the rule-activation cascade per task, guarding
// against non-terminating recursive programs.
const maxCascade = 200000

// Envelope is one network message: a marshaled tuple plus the provenance
// the receiver's tracer records in tupleTable.
type Envelope struct {
	// Src is the sending node's address.
	Src string
	// SrcTupleID is the tuple's node-unique ID at the sender.
	SrcTupleID uint64
	// Raw is the wire encoding of the tuple. It is borrowed: a sender's
	// Raw is the node's marshal scratch, valid only until Send returns,
	// and HandleMessage keeps nothing of the Raw it is given.
	Raw []byte
}

// SendFunc transmits an envelope toward dst. at is the node-local virtual
// time of the send (task start plus accumulated processing cost). env.Raw
// is borrowed for the duration of the call: a transport that holds the
// bytes past its return copies them, one that drops the message copies
// nothing.
type SendFunc func(dst string, env Envelope, at float64)

// Periodic is a registered periodic trigger; the driver owns scheduling.
type Periodic struct {
	// Strand is the rule strand the timer fires.
	Strand    *dataflow.Strand
	qs        *metrics.Query // the owning query's bill bucket
	fired     int
	cancelled bool // set when the owning query is uninstalled
}

// Period returns the firing interval in seconds.
func (p *Periodic) Period() float64 { return p.Strand.Trigger.Period }

// Done reports whether the periodic stopped firing: a bounded periodic
// that exhausted its firings, or one whose query was uninstalled. Driver
// timer chains consult Done before rescheduling, so cancellation kills
// the chain at its next firing.
func (p *Periodic) Done() bool {
	if p.cancelled {
		return true
	}
	c := p.Strand.Trigger.Count
	return c > 0 && p.fired >= c
}

// Config configures a node.
type Config struct {
	// Addr is this node's address (location specifier value).
	Addr string
	// Seed seeds the node-local RNG (f_rand, periodic nonces).
	Seed int64
	// Send transmits envelopes; nil nodes drop remote tuples.
	Send SendFunc
	// Clock returns the current base virtual time in seconds. The
	// driver sets it; defaults to a clock stuck at zero.
	Clock func() float64
	// OnWatch receives tuples of watched predicates. The tuple is lent,
	// like every tuple a task hands out: it is valid until the callback
	// returns and is read-only, fields included, because the task goes
	// on to store it and run strands on it. An observer that keeps it,
	// passes it to another goroutine or needs to change it works on
	// t.Clone().
	OnWatch func(now float64, t tuple.Tuple)
	// OnRuleError receives runtime rule errors.
	OnRuleError func(now float64, ruleID string, err error)
	// OnNewPeriodic is invoked when installing a program registers a
	// new periodic trigger, so the driver can schedule it.
	OnNewPeriodic func(p *Periodic)
	// TraceStore, when non-nil, gives the tracer a durable append-only
	// trace store (forensic log); it has no effect unless tracing is
	// enabled too.
	TraceStore *tracestore.Config
	// ExtraObs, when non-nil, contributes driver-owned counters appended
	// to ObsCounters — the realtime transport reports its datagram and
	// overload-drop totals through this so they reach the queryable
	// nodeStats table and the Prometheus exposition. Implementations must
	// be safe to call from the node's executor goroutine while other
	// goroutines (e.g. a socket reader) update the underlying values:
	// transport counters are atomics. Simulated drivers leave it nil, so
	// the nodeStats row set stays mode-invariant where the determinism
	// fingerprints demand it.
	ExtraObs func() []metrics.Counter
	// Arenas is where the node takes its task arenas from and keeps an
	// idle one. Nodes whose tasks all run on one goroutine may share one
	// (simnet gives every host of a network the same); nil gives the
	// node one of its own, as a node on a goroutine of its own needs.
	Arenas *Arenas
}

type queued struct {
	t        tuple.Tuple
	rel      *relation // t's record, for a head a strand emitted; nil: look t.Name up
	isDelete bool
	src      string // provenance for the tracer
	srcID    uint64
}

// query is one installed program: the engine's unit of uninstallation
// and per-query cost attribution, and its strands' dataflow.Query.
type query struct {
	id      string
	stats   *metrics.Query // bill bucket, also held by its strands and timers
	strands []*dataflow.Strand
	// periodics are this query's registered timers (cancelled on
	// uninstall so driver timer chains die).
	periodics []*Periodic
	// names are the compilation's: this query holds a refcount of each of
	// its tables and watches, and in rels the record of each relation it
	// numbers, with a ref.
	names       *queryNames
	rels        []*relation
	installedAt float64
}

// Table implements dataflow.Query.
func (q *query) Table(rel int) *table.Table { return q.rels[rel].tbl }

// Node is one P2 node. Not safe for concurrent use: the driver serializes
// Handle* calls on each node. Distinct nodes share one piece of mutable
// state at most, the Config.Arenas their tasks take scratch and interned
// strings from, and only nodes whose tasks run on one goroutine share it.
// Everything else each owns (store, RNG, tracer, counters, scratch
// buffers; Send and the On* callbacks are the only ways out), so realtime
// UDPNodes in one process, each with its own Arenas, run on different
// goroutines concurrently.
type Node struct {
	cfg   Config
	store *table.Store
	rng   rng.Source

	rels      map[string]*relation // one record per predicate name (relation.go)
	periodics []*Periodic

	// queries indexes installed queries by ID; queryOrder preserves
	// installation order (deterministic iteration).
	queries    map[string]*query
	queryOrder []string
	// aggMaints holds the persistent incremental-aggregate accumulators,
	// one per maintainable strand that has triggered at least once, with
	// the table subscriptions feeding them (torn down on uninstall).
	aggMaints map[*dataflow.Strand]*aggEntry

	tracer *trace.Tracer
	met    metrics.Node
	hists  metrics.NodeHists
	// perQuery splits the node counters by query ID; curStats points at
	// the bucket bills currently land in (the running strand's query, or
	// system between strands). A bucket is made when its query installs
	// and reported once the query has run (reported).
	perQuery map[string]*metrics.Query
	curStats *metrics.Query
	sysStats *metrics.Query

	// epoch counts process incarnations: 0 from birth, incremented by
	// Rejoin. Stamped on every stats row and queryable via nodeEpoch.
	epoch  int64
	filled uint8 // bit i: the running task filled reflectTables[i] (reflect.go)

	nextTupleID  uint64
	labelCounter int
	queryCounter int
	micro        float64 // cost accumulated within the current task
	inTask       bool    // a Handle* task is on the stack
	arena        *arena  // the current task's tuples, frames and queue; nil between tasks (arena.go)
	scratch      []byte  // reusable marshal buffer for the send postamble
	// preamble holds the seed tuples injected via SeedLocal, in order;
	// Rejoin replays them after a restart with soft-state loss (the
	// bootstrap a real process re-runs when it comes back up).
	preamble []tuple.Tuple
}

// NewNode creates a node.
func NewNode(cfg Config) *Node {
	if cfg.Clock == nil {
		cfg.Clock = func() float64 { return 0 }
	}
	if cfg.Arenas == nil {
		cfg.Arenas = new(Arenas)
	}
	n := &Node{
		cfg:       cfg,
		store:     table.NewStore(),
		rng:       rng.Make(cfg.Seed),
		rels:      make(map[string]*relation),
		queries:   make(map[string]*query),
		aggMaints: make(map[*dataflow.Strand]*aggEntry),
		perQuery:  make(map[string]*metrics.Query),
	}
	n.sysStats = n.queryStats(SystemQuery)
	n.curStats = n.sysStats
	system := func(name string, keys ...int) *table.Table {
		return n.materialize(table.Spec{Name: name, Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: keys}).tbl
	}
	// Reflection tables, filled when read (reflect.go).
	system(RuleTableName, 2, 3, 4)
	system(TableTableName, 2)
	system(QueryTableName, 2)
	system(NodeStatsTableName, 3)
	system(QueryStatsTableName, 3, 4)
	n.bindReflection()
	// The epoch row is inserted directly (no task is running at birth;
	// there are no strands to fire yet either).
	epoch := system(NodeEpochTableName, 1)
	if _, err := epoch.Insert(n.epochRow(), cfg.Clock()); err != nil {
		panic(fmt.Sprintf("engine: seeding %s: %v", NodeEpochTableName, err))
	}
	return n
}

// epochRow builds the current nodeEpoch(NAddr, Epoch) row.
func (n *Node) epochRow() tuple.Tuple {
	return tuple.New(NodeEpochTableName, tuple.Str(n.cfg.Addr), tuple.Int(n.epoch))
}

// Epoch returns the node's process incarnation: 0 from birth,
// incremented on every Rejoin.
func (n *Node) Epoch() int64 { return n.epoch }

// IsSystemTable reports whether name is an engine- or tracer-owned
// table: one filled on read (planner.FilledOnRead) or nodeEpoch. Queries
// may re-declare one but never own it: it has no owners and is never
// dropped. Code that analyses a program without a node to compile it on,
// such as monitor.BuildCluster deciding whether an aggregate splits,
// admits these names as materialized.
func IsSystemTable(name string) bool {
	return planner.FilledOnRead(name) || name == NodeEpochTableName
}

// Addr returns the node's address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Store exposes the node's tables (harness and test inspection; OverLog
// rules access them through joins).
func (n *Node) Store() *table.Store { return n.store }

// Metrics returns a snapshot of the node's counters.
func (n *Node) Metrics() metrics.Node { return n.met.Snapshot() }

// Hists returns a snapshot (value copy) of the node's latency/cost
// histograms. Like Metrics it must only be called from the node's
// executor or while the node is stopped; concurrent readers snapshot
// through the driver.
func (n *Node) Hists() metrics.NodeHists { return n.hists }

// ObserveHop records one per-hop message latency in seconds. Drivers
// call it on the receiving node as a delivered message is observed:
// virtual send-to-arrival time under simnet, wall clock under realtime.
// Pure observation — it bills nothing, so enabling histograms changes
// neither determinism nor per-query accounting.
func (n *Node) ObserveHop(sec float64) { n.hists.HopLatency.Observe(sec) }

// ObserveQueueWait records how long a task waited in the node's run
// queue before starting and the queue depth (task itself included)
// observed at that moment. Pure observation, like ObserveHop.
func (n *Node) ObserveQueueWait(wait float64, depth int) {
	n.hists.QueueWait.Observe(wait)
	n.hists.QueueDepth.Observe(float64(depth))
}

// QueryMetrics returns a snapshot of the per-query counters, keyed by
// query ID. The reserved "system" bucket holds unattributable costs;
// buckets of uninstalled queries persist (the bill survives the query),
// so the per-query values always sum to the node totals.
func (n *Node) QueryMetrics() map[string]metrics.Query {
	out := make(map[string]metrics.Query, len(n.perQuery))
	for id, q := range n.perQuery {
		if reported(id, q) {
			out[id] = q.Snapshot()
		}
	}
	return out
}

// Tracer returns the execution tracer, or nil when tracing is off.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// TraceStore returns the durable trace store, or nil when tracing or
// the store is off.
func (n *Node) TraceStore() *tracestore.Store {
	if n.tracer == nil {
		return nil
	}
	return n.tracer.Store()
}

// Periodics returns all registered periodic triggers.
func (n *Node) Periodics() []*Periodic { return n.periodics }

// Queries returns the installed query IDs in installation order.
func (n *Node) Queries() []string {
	return append([]string(nil), n.queryOrder...)
}

// HasQuery reports whether a query with the given ID is installed.
func (n *Node) HasQuery(id string) bool {
	_, ok := n.queries[id]
	return ok
}

// EnableTracing turns on execution logging: every strand's taps feed the
// tracer, and ruleExec/tupleTable appear in the store. When
// Config.TraceStore is set, the tracer additionally writes
// every trace record through a durable append-only store; the append
// CPU is billed offline to the system bucket (real work the operator
// pays for, but asynchronous to the dataflow — it never moves the
// micro-clock, so emissions and tuple IDs are identical store on/off).
func (n *Node) EnableTracing(cfg trace.Config) error {
	if n.tracer != nil {
		return nil
	}
	tr, err := trace.New(n.store, n.cfg.Addr, cfg)
	if err != nil {
		return err
	}
	n.tracer = tr
	if sc := n.cfg.TraceStore; sc != nil {
		st := tracestore.New(n.cfg.Addr, *sc)
		tr.AttachStore(st, func(appended, sealed int) {
			n.billOffline(float64(appended)*dataflow.CostStoreAppend +
				float64(sealed)*dataflow.CostStoreSeal)
		})
	}
	// Tracing-enabled nodes use the rescan path, which tells the tracer
	// each group's witness: drop the incremental accumulators and their
	// listeners.
	for s, e := range n.aggMaints {
		n.dropAggEntry(s, e)
	}
	// Event logging (§2.1): record insertions and removals on every
	// table, existing and future. This also binds the tracer's own
	// tables, which trace.New made in the store, to their records.
	for _, name := range n.store.Names() {
		n.materialize(n.store.Get(name).Spec())
	}
	return nil
}

// subscribeLog wires a table's change stream into the tracer's tupleLog.
func (n *Node) subscribeLog(r *relation) {
	if n.tracer == nil || r.logged {
		return
	}
	r.logged = true
	n.tracer.LogEvent("watchTable", r.tbl.Name(), 0, n.Now()) // marks coverage start
	r.tbl.Subscribe(func(op table.Op, t tuple.Tuple) {
		if op == table.OpClear {
			return // bulk wipe: no per-row provenance to log
		}
		kind := "insert"
		if op == table.OpDelete {
			kind = "delete"
		}
		n.tracer.LogEvent(kind, t.Name, t.ID, n.Now())
	})
}

// NumLogTaps returns how many tables feed the tracer's event log (the
// tracer tap count; uninstalling a query that owned a table removes its
// tap with the table).
func (n *Node) NumLogTaps() int { return n.countRels(func(r *relation) bool { return r.logged }) }

// NumWatches returns the number of distinct watched predicates.
func (n *Node) NumWatches() int { return n.countRels(func(r *relation) bool { return r.watches > 0 }) }

// NumTimers returns the number of live periodic triggers (registered,
// not exhausted, not cancelled).
func (n *Node) NumTimers() int {
	c := 0
	for _, p := range n.periodics {
		if !p.Done() {
			c++
		}
	}
	return c
}

// InstallProgram installs the program as a fresh query with a generated
// ID. Programs may be installed at any point in the node's life (§1.3:
// monitoring queries are deployed piecemeal on-line).
func (n *Node) InstallProgram(prog *overlog.Program) error {
	_, err := n.InstallQuery("", prog)
	return err
}

// InstallQuery atomically installs prog as a managed query under the
// given ID (empty = generate one) and returns the ID. The whole program
// is validated first — table declarations checked for spec conflicts
// against the store and each other, every rule compiled on this node
// against the union of existing and declared tables — and only then
// committed, so an invalid program installs nothing: no strand, table,
// watch or timer.
func (n *Node) InstallQuery(id string, prog *overlog.Program) (string, error) {
	return n.installQuery(id, prog, nil)
}

// installQuery is the one install path: compile prog on this node
// unless cq is a compilation planCompatible accepts here, then
// instantiate the plans in per-node strands.
func (n *Node) installQuery(id string, prog *overlog.Program, cq *CompiledQuery) (string, error) {
	// ---- Phase 1: validate; no node state is touched on any error. ----
	if id == SystemQuery {
		return "", fmt.Errorf("engine: query ID %q is reserved", SystemQuery)
	}
	if id == "" {
		id = n.genQueryID()
	} else if _, dup := n.queries[id]; dup {
		return "", fmt.Errorf("engine: query %q already installed", id)
	}
	if cq == nil || !n.planCompatible(cq) {
		var err error
		if cq, err = n.Compile(prog); err != nil {
			return "", err
		}
	}
	for _, spec := range cq.specs {
		if err := n.store.Check(spec); err != nil {
			return "", fmt.Errorf("engine: %w", err)
		}
	}

	// ---- Phase 2: commit; nothing below can fail. ----
	n.labelCounter += cq.labelsUsed
	q := &query{
		id:          id,
		stats:       n.queryStats(id),
		strands:     make([]*dataflow.Strand, len(cq.plans)),
		names:       cq.names,
		rels:        make([]*relation, len(cq.names.rels)),
		installedAt: n.cfg.Clock(),
	}
	for k, name := range cq.names.rels {
		q.rels[k] = n.relation(name)
		q.rels[k].refs++
	}
	for _, spec := range cq.specs {
		n.materialize(spec) // validated in phase 1
	}
	for _, name := range cq.names.tables {
		n.rels[name].owners++
	}
	for _, w := range cq.names.watches {
		n.relation(w).watches++
	}
	for i, p := range cq.plans {
		q.strands[i] = p.Instantiate(q)
		n.installStrand(q.strands[i], q)
	}
	n.queries[id] = q
	n.queryOrder = append(n.queryOrder, id)
	n.dropProgramReflection()
	return id, nil
}

// UninstallQuery removes the named query: its strands leave their
// relations' dispatch lists, its timers are cancelled (driver chains die
// at the next firing), its watch and table refcounts drop — tables whose
// count reaches zero are dropped from the store together with their
// listeners and tracer tap — and the reflection tables stop listing
// it. The node returns to the dataflow shape it had before the install;
// only the query's accumulated bill in QueryMetrics survives.
func (n *Node) UninstallQuery(id string) error {
	if id == SystemQuery {
		return fmt.Errorf("engine: cannot uninstall reserved query %q", SystemQuery)
	}
	q, ok := n.queries[id]
	if !ok {
		return fmt.Errorf("engine: query %q is not installed", id)
	}
	for _, s := range q.strands {
		if s.Trigger.Kind != dataflow.TriggerPeriodic {
			// A new array: a dispatch loop ranging over the old one keeps
			// the strands it started with.
			r := q.rels[s.Trigger.Rel]
			r.strands = slices.DeleteFunc(slices.Clone(r.strands), func(b bound) bool { return b.s == s })
		}
		if e := n.aggMaints[s]; e != nil {
			n.dropAggEntry(s, e)
		}
	}
	for _, p := range q.periodics {
		p.cancelled = true
	}
	n.periodics = slices.DeleteFunc(n.periodics, func(p *Periodic) bool { return p.cancelled })
	for _, w := range q.names.watches {
		r := n.rels[w]
		r.watches--
		n.release(w, r)
	}
	for _, name := range q.names.tables {
		r := n.rels[name]
		if r.owners--; r.owners == 0 {
			n.drop(name, r)
		}
	}
	for k, r := range q.rels {
		r.refs--
		n.release(q.names.rels[k], r)
	}
	delete(n.queries, id)
	n.queryOrder = slices.DeleteFunc(n.queryOrder, func(qid string) bool { return qid == id })
	n.dropProgramReflection()
	return nil
}

func (n *Node) genQueryID() string {
	for {
		n.queryCounter++
		id := fmt.Sprintf("q%d", n.queryCounter)
		if _, taken := n.queries[id]; !taken {
			return id
		}
	}
}

// ruleLabel is the generated ID of the k-th unlabeled rule on a node.
func ruleLabel(k int) string { return fmt.Sprintf("rule_%d", k) }

func (n *Node) installStrand(s *dataflow.Strand, q *query) {
	switch s.Trigger.Kind {
	case dataflow.TriggerEvent, dataflow.TriggerDelta:
		r := q.rels[s.Trigger.Rel]
		r.strands = append(r.strands, bound{s, q.stats})
	case dataflow.TriggerPeriodic:
		p := &Periodic{Strand: s, qs: q.stats}
		n.periodics = append(n.periodics, p)
		q.periodics = append(q.periodics, p)
		if n.cfg.OnNewPeriodic != nil {
			n.cfg.OnNewPeriodic(p)
		}
	}
}

// beginTask opens a task, whose cost starts from zero; finishTask closes it.
func (n *Node) beginTask() { n.inTask, n.micro = true, 0 }

// finishTask runs the cascade the task queued and is the one epilogue of
// every task: the tracer drops the provenance nothing referenced, and the
// tuples the task built go back with its arena — nothing may hold a
// borrowed tuple past this point. It returns the task's cost.
func (n *Node) finishTask() float64 {
	n.drain()
	if n.tracer != nil {
		n.tracer.TaskDone()
	}
	n.releaseArena()
	n.inTask, n.filled = false, 0
	return n.micro
}

// taskTuple builds a tuple in the task's arena.
func (n *Node) taskTuple(name string, fields ...tuple.Value) tuple.Tuple {
	return tuple.Tuple{Name: name, Fields: append(n.HeadFields(len(fields))[:0], fields...)}
}

// ---- Driver entry points. Each runs one task and returns its cost. ----

// HandleMessage processes one incoming network message.
func (n *Node) HandleMessage(env Envelope) float64 {
	n.met.MsgsRecv++
	n.met.BytesRecv += int64(len(env.Raw))
	t, err := n.taskArena().decode(&n.cfg.Arenas.strs, env.Raw)
	if err != nil {
		// A task like any other: the failed decode is billed, and the
		// error is reported on this task's clock.
		n.beginTask()
		n.bill(dataflow.CostMarshal)
		n.ruleError("net", fmt.Errorf("dropping undecodable message from %s: %w", env.Src, err))
		return n.finishTask()
	}
	return n.runTask(queued{t: t, src: env.Src, srcID: env.SrcTupleID}, dataflow.CostMarshal)
}

// HandleTimer fires a periodic trigger.
func (n *Node) HandleTimer(p *Periodic) float64 {
	if p.cancelled {
		return 0 // query uninstalled while the firing was in flight
	}
	p.fired++
	n.met.TimerFires++
	p.qs.TimerFires++
	n.beginTask()
	trig := n.periodicTuple(p)
	n.billTo(p.qs, dataflow.CostTimerFire)
	// Periodic events are synthesized locally: give them IDs and run
	// the strand directly (they are not routable tuples).
	n.assignID(&trig, n.cfg.Addr, 0)
	n.runStrand(bound{p.Strand, p.qs}, trig)
	return n.finishTask()
}

func (n *Node) periodicTuple(p *Periodic) tuple.Tuple {
	trig := p.Strand.Trigger
	fields := n.HeadFields(len(trig.FieldSlots))
	fields[0] = tuple.Str(n.cfg.Addr)
	fields[1] = tuple.ID(n.rng.Uint64())
	fields[2] = tuple.Float(trig.Period)
	if len(fields) >= 4 {
		fields[3] = tuple.Int(int64(trig.Count))
	}
	return tuple.Tuple{Name: "periodic", Fields: fields}
}

// HandleLocal injects a tuple as if produced locally: seed state (node,
// landmark rows) and operator-initiated events (orderingEvent, traceResp).
func (n *Node) HandleLocal(t tuple.Tuple) float64 {
	return n.runTask(queued{t: t, src: n.cfg.Addr}, 0)
}

// SeedLocal injects a tuple like HandleLocal and additionally records it
// as part of the node's preamble: the bootstrap state a process re-runs
// on startup. Rejoin replays the preamble after soft-state loss.
func (n *Node) SeedLocal(t tuple.Tuple) float64 {
	n.preamble = append(n.preamble, t)
	return n.HandleLocal(t)
}

// Preamble returns the recorded seed tuples, in injection order.
func (n *Node) Preamble() []tuple.Tuple { return n.preamble }

// Rejoin models a process restart after a crash with soft-state loss:
// all application tables are cleared (no delete events fire — the state
// of a dead process simply vanishes) and the preamble is replayed, so
// the node bootstraps afresh exactly as it did at install time.
// Installed queries, rule strands, watches and the tracer survive: they
// are the program, not its soft state, and the reflection tables refill
// from them when next read. Like every Handle* entry point it runs one
// task and returns its cost.
func (n *Node) Rejoin() float64 {
	n.beginTask()
	for _, name := range n.store.Names() {
		n.store.Get(name).Clear()
		n.bill(dataflow.CostTableOp)
	}
	if n.tracer != nil {
		// Reset purges the trace tables again (idempotent after the loop
		// above) and, crucially, drops memoized provenance: the restarted
		// node reuses tuple IDs, so stale refcounts must not survive to
		// release post-restart entries. The trace store keeps its history
		// and records the restart marker.
		n.tracer.Reset(n.Now())
	}
	// New incarnation: the epoch row is queued before the preamble so
	// every bootstrap rule already sees the post-restart epoch.
	n.epoch++
	n.enqueue(queued{t: n.epochRow(), src: n.cfg.Addr})
	for _, t := range n.preamble {
		n.enqueue(queued{t: t.WithID(0), src: n.cfg.Addr})
	}
	return n.finishTask()
}

// Sweep expires soft state; drivers call it about once per virtual
// second.
func (n *Node) Sweep() float64 {
	n.micro = 0
	n.store.ExpireAll(n.cfg.Clock())
	n.bill(dataflow.CostTableOp)
	return n.micro
}

// runTask drains the cascade triggered by the seed tuple.
func (n *Node) runTask(seed queued, startCost float64) float64 {
	n.beginTask()
	n.bill(startCost)
	n.enqueue(seed)
	return n.finishTask()
}

// drain consumes the task's cascade queue as a ring: processed slots are
// zeroed and reclaimed by a head index plus periodic compaction (the
// pattern simnet's host queue uses). A plain queue = queue[1:] would pin
// every processed tuple in the backing array and force the append side
// to reallocate as the sliced-away capacity runs out — O(n^2) memory
// churn on deep cascades. The queue lives in the task's arena, which
// every enqueue has taken.
func (n *Node) drain() {
	a := n.arena
	if a == nil {
		return // the task queued nothing
	}
	for steps := 0; len(a.queue) > a.qhead; steps++ {
		if steps > maxCascade {
			n.ruleError("engine", fmt.Errorf("cascade exceeded %d steps; dropping %d queued tuples", maxCascade, len(a.queue)-a.qhead))
			clear(a.queue[a.qhead:]) // the dropped tuples must not stay pinned
			a.queue, a.qhead = a.queue[:0], 0
			return
		}
		q := a.queue[a.qhead]
		a.queue[a.qhead] = queued{}
		a.qhead++
		if a.qhead == len(a.queue) {
			a.queue, a.qhead = a.queue[:0], 0
		} else if a.qhead >= 64 && a.qhead*2 >= len(a.queue) {
			m := copy(a.queue, a.queue[a.qhead:])
			clear(a.queue[m:]) // where the moved tuples were: stale slots would pin them
			a.queue, a.qhead = a.queue[:m], 0
		}
		n.processOne(q)
	}
}

// processOne handles one queued tuple. A head a strand emitted carries
// its relation; any other tuple looks its name up, as does a head whose
// query was uninstalled while it was queued (its record may be gone), and
// so does every tuple again after a watch observer ran.
func (n *Node) processOne(q queued) {
	n.met.TuplesProcessed++
	now := n.Now()
	r := q.rel
	if r == nil || r.refs == 0 {
		r = n.rels[q.t.Name]
	}
	if q.isDelete {
		if r == nil || r.tbl == nil {
			n.ruleError("engine", fmt.Errorf("delete from unmaterialized table %s", q.t.Name))
			return
		}
		n.bill(dataflow.CostTableOp)
		r.tbl.Delete(q.t, now)
		return
	}
	t := q.t
	if t.ID == 0 {
		n.assignID(&t, q.src, q.srcID)
	}
	if r != nil && r.watches > 0 && n.cfg.OnWatch != nil {
		// Delivering a watched tuple is CPU like any table op; between
		// strands the bill lands in the system bucket.
		n.bill(dataflow.CostWatch)
		n.cfg.OnWatch(now, t)
		r = n.rels[t.Name] // the observer may have installed or uninstalled a query
	}
	if n.tracer != nil {
		n.tracer.LogEvent("arrive", t.Name, t.ID, now)
	}
	switch t.Name {
	case InstallEventName:
		n.handleInstallEvent(t)
		return
	case UninstallEventName:
		n.handleUninstallEvent(t)
		return
	}
	if r == nil {
		return
	}
	kind := dataflow.TriggerEvent
	if r.tbl != nil {
		n.bill(dataflow.CostTableOp)
		changed, err := r.tbl.Insert(t, now)
		if err != nil {
			n.ruleError("engine", err)
			return
		}
		if !changed {
			return
		}
		kind = dataflow.TriggerDelta
	}
	for _, b := range r.strands {
		if b.s.Trigger.Kind == kind {
			n.runStrand(b, t)
		}
	}
}

// runStrand runs one strand activation with its query's bucket receiving
// the bills (per-query attribution at strand granularity). The billed
// cost of the activation — everything accrued while the strand runs,
// including cascade work it triggers inline — also feeds the StrandCost
// histogram.
func (n *Node) runStrand(b bound, t tuple.Tuple) {
	n.met.RuleFires++
	prev := n.curStats
	n.curStats = b.qs
	n.curStats.RuleFires++
	start := n.micro
	b.s.Run(n, t)
	n.hists.StrandCost.Observe(n.micro - start)
	n.curStats = prev
}

// handleInstallEvent implements the higher-order installation event:
// installProgram@N(Source) parses Source as OverLog and installs it as a
// fresh query; an optional second payload field names the query.
func (n *Node) handleInstallEvent(t tuple.Tuple) {
	if t.Arity() < 2 || t.Field(1).Kind() != tuple.KindStr {
		n.ruleError("engine", fmt.Errorf("%s needs a program-text field", InstallEventName))
		return
	}
	id := ""
	if t.Arity() >= 3 {
		if t.Field(2).Kind() != tuple.KindStr {
			n.ruleError("engine", fmt.Errorf("%s: query ID must be a string", InstallEventName))
			return
		}
		id = t.Field(2).AsStr()
	}
	prog, err := overlog.Parse(t.Field(1).AsStr())
	if err != nil {
		n.ruleError("engine", fmt.Errorf("%s: %w", InstallEventName, err))
		return
	}
	if _, err := n.InstallQuery(id, prog); err != nil {
		n.ruleError("engine", err)
	}
}

// handleUninstallEvent implements the higher-order removal event:
// uninstallProgram@N(QueryID) uninstalls the named query.
func (n *Node) handleUninstallEvent(t tuple.Tuple) {
	if t.Arity() < 2 || t.Field(1).Kind() != tuple.KindStr {
		n.ruleError("engine", fmt.Errorf("%s needs a query-ID field", UninstallEventName))
		return
	}
	if err := n.UninstallQuery(t.Field(1).AsStr()); err != nil {
		n.ruleError("engine", err)
	}
}

// assignID gives the tuple a node-unique ID and registers provenance with
// the tracer. src/srcID describe where the tuple came from (self for
// locally created tuples).
func (n *Node) assignID(t *tuple.Tuple, src string, srcID uint64) uint64 {
	n.nextTupleID++
	id := n.nextTupleID
	*t = t.WithID(id)
	if src == "" || src == n.cfg.Addr {
		src, srcID = n.cfg.Addr, id
	}
	if n.tracer != nil {
		dst := t.Loc()
		if dst == "" {
			dst = n.cfg.Addr
		}
		n.tracer.Register(id, t.Name, src, srcID, dst, n.Now())
	}
	return id
}

// queryStats returns query id's bucket, which outlives the query.
func (n *Node) queryStats(id string) *metrics.Query {
	q := n.perQuery[id]
	if q == nil {
		q = &metrics.Query{}
		n.perQuery[id] = q
	}
	return q
}

// reported says whether query id's bucket q is reported (QueryMetrics,
// queryStats): once its query has run, so installing a query that never
// runs reports nothing.
func reported(id string, q *metrics.Query) bool {
	return id == SystemQuery || q.RuleFires > 0 || q.TimerFires > 0
}

// billTo charges sec seconds of simulated CPU to the node and to the
// given per-query bucket; every bill lands in exactly one bucket, which
// is what keeps per-query bills summing to the node totals.
func (n *Node) billTo(qs *metrics.Query, sec float64) {
	n.micro += sec
	n.met.BusySeconds += sec
	qs.BusySeconds += sec
}

func (n *Node) bill(sec float64) { n.billTo(n.curStats, sec) }

// billOffline charges work that is real CPU but asynchronous to the
// dataflow — the trace-store appender. It lands in the node total and
// the system bucket (so per-query bills keep summing to node totals)
// but does NOT advance the task micro-clock: offline work never
// perturbs virtual time, emissions, or tuple IDs.
func (n *Node) billOffline(sec float64) {
	n.met.BusySeconds += sec
	n.sysStats.BusySeconds += sec
}

func (n *Node) ruleError(ruleID string, err error) {
	n.met.RuleErrors++
	if n.cfg.OnRuleError != nil {
		n.cfg.OnRuleError(n.Now(), ruleID, err)
	}
}

// ---- dataflow.Context implementation ----

// Now returns the node-local virtual time: task start plus processing
// cost accumulated so far (the micro-clock that gives rule executions
// non-zero durations, which the §3.2 profiler decomposes).
func (n *Node) Now() float64 { return n.cfg.Clock() + n.micro }

// Env implements dataflow.Context.
func (n *Node) Env() overlog.Context { return n }

// Rand64 implements overlog.Context.
func (n *Node) Rand64() uint64 { return n.rng.Uint64() }

// LocalAddr implements overlog.Context.
func (n *Node) LocalAddr() string { return n.cfg.Addr }

// aggEntry pairs a strand's persistent accumulator with the table
// subscriptions that keep it current. tabs[0] is the primary table
// (inserts/deletes/expiry maintain the accumulator incrementally); the
// rest are secondaries (any change invalidates it).
type aggEntry struct {
	am   *dataflow.AggMaint
	tabs []aggSub
}

// aggSub is one table subscription held by an aggEntry. Once rel.tbl is
// not the table tb subscribed to, the table was dropped: AggState rewires.
type aggSub struct {
	rel *relation
	tb  *table.Table
	sub int
}

// AggState implements dataflow.Context: it returns the persistent
// accumulator for a maintainable strand, lazily wiring the table
// listeners on first use and rewiring when a subscribed table object was
// replaced. It returns nil for the rescan path while a table the strand
// reads is missing (the rescan reports it), on a traced node, where
// only the rescan tells the tracer each group's witness, and when it
// joins a table filled on read, which only a rescan's read fills.
func (n *Node) AggState(s *dataflow.Strand) *dataflow.AggMaint {
	if n.tracer != nil {
		return nil
	}
	e := n.aggMaints[s]
	if e != nil {
		if !slices.ContainsFunc(e.tabs, func(sub aggSub) bool { return sub.rel.tbl != sub.tb }) {
			if !e.am.Valid() {
				n.met.AggRebuilds++ // runTrigger rebuilds before emitting
			}
			return e.am
		}
		n.dropAggEntry(s, e)
	}
	if slices.ContainsFunc(s.AggPlan.Secondaries, planner.FilledOnRead) {
		return nil
	}
	tabs := make([]aggSub, len(s.AggPlan.Rels))
	for i, rel := range s.AggPlan.Rels {
		r := s.Query.(*query).rels[rel]
		if r.tbl == nil {
			return nil
		}
		tabs[i] = aggSub{rel: r, tb: r.tbl}
	}
	// AggState is asked from inside s's activation, so curStats is the
	// bucket of s's query.
	e = &aggEntry{am: dataflow.NewAggMaint(s), tabs: tabs}
	qs, am := n.curStats, e.am
	tabs[0].sub = tabs[0].tb.Subscribe(func(op table.Op, t tuple.Tuple) { n.aggApply(am, qs, op, t) })
	for i := 1; i < len(tabs); i++ {
		tabs[i].sub = tabs[i].tb.Subscribe(func(table.Op, tuple.Tuple) { am.Invalidate() })
	}
	n.aggMaints[s] = e
	n.met.AggRebuilds++ // fresh accumulator: first trigger rebuilds
	return e.am
}

// aggApply folds one primary-table change into a strand's accumulator,
// billed to the owning query's bucket qs (maintenance work is
// attributable CPU).
func (n *Node) aggApply(am *dataflow.AggMaint, qs *metrics.Query, op table.Op, t tuple.Tuple) {
	if op == table.OpClear {
		am.Invalidate()
		return
	}
	if !am.Valid() {
		return // next trigger rebuilds; nothing to maintain
	}
	prev := n.curStats
	n.curStats = qs
	n.bill(dataflow.CostAggApply)
	n.met.AggApplies++
	am.Apply(n, op, t)
	n.curStats = prev
}

// dropAggEntry unsubscribes an accumulator's table listeners and forgets
// it. Unsubscribing from a dropped table's stale object is harmless.
func (n *Node) dropAggEntry(s *dataflow.Strand, e *aggEntry) {
	for _, sub := range e.tabs {
		sub.tb.Unsubscribe(sub.sub)
	}
	delete(n.aggMaints, s)
}

// Table returns the table bound to name's relation record, which is the
// store's, or nil.
func (n *Node) Table(name string) *table.Table {
	if r := n.rels[name]; r != nil {
		return r.tbl
	}
	return nil
}

// Bill implements dataflow.Context.
func (n *Node) Bill(sec float64) { n.bill(sec) }

// RuleError implements dataflow.Context.
func (n *Node) RuleError(ruleID string, err error) { n.ruleError(ruleID, err) }

// TraceInput implements dataflow.Context.
func (n *Node) TraceInput(s *dataflow.Strand, t tuple.Tuple) {
	if n.tracer == nil {
		return
	}
	n.bill(dataflow.CostTraceTap)
	n.tracer.Input(s, t, n.Now())
}

// TracePrecond implements dataflow.Context.
func (n *Node) TracePrecond(s *dataflow.Strand, stage int, t tuple.Tuple) {
	if n.tracer == nil {
		return
	}
	n.bill(dataflow.CostTraceTap)
	n.tracer.Precond(s, stage, t, n.Now())
}

// Passed implements dataflow.Context: a passed-over row costs the tap
// the walk would have made on it and its skipped evaluations.
func (n *Node) Passed(rows, evals int) {
	for range rows {
		if n.tracer != nil {
			n.bill(dataflow.CostTraceTap)
		}
		for range evals {
			n.bill(dataflow.CostEval)
		}
	}
}

// TraceWitness implements dataflow.Context. It bills nothing: the walk
// makes no tap for it.
func (n *Node) TraceWitness(s *dataflow.Strand, group int) {
	if n.tracer != nil {
		n.tracer.Witness(s, group)
	}
}

// EmitHead implements dataflow.Context: assign the head tuple its ID,
// trace it, and route it (local queue, delete queue, or the network
// postamble).
func (n *Node) EmitHead(s *dataflow.Strand, t tuple.Tuple, isDelete bool) {
	n.met.HeadsEmitted++
	n.curStats.HeadsEmitted++
	if isDelete {
		if loc := t.Loc(); loc != "" && loc != n.cfg.Addr {
			n.ruleError(s.RuleID, fmt.Errorf("delete rule head must be local, got %s", loc))
			return
		}
		n.enqueue(queued{t: t, rel: s.Query.(*query).rels[s.HeadRel], isDelete: true})
		return
	}
	id := n.assignID(&t, n.cfg.Addr, 0)
	if n.tracer != nil {
		n.bill(dataflow.CostTraceTap)
		n.tracer.Output(s, t, n.Now())
	}
	dst := t.Loc()
	if dst == "" {
		n.ruleError(s.RuleID, fmt.Errorf("head tuple %s has no location specifier", t))
		return
	}
	if dst == n.cfg.Addr {
		n.enqueue(queued{t: t, rel: s.Query.(*query).rels[s.HeadRel], src: n.cfg.Addr, srcID: id})
		return
	}
	// Network postamble: marshal into the node's scratch buffer (sized
	// from the exact encoded size, so it never grows mid-append after
	// warmup) and lend it to Send: the transport copies what it holds
	// beyond the call, so a message it drops is never copied at all.
	// The marshal bills to the current bucket: during a strand run that
	// is the emitting query, so the traffic a monitoring query generates
	// (e.g. aggregation-tree partials) shows up in its own bill rather
	// than hiding in the system bucket. Between strands it still lands
	// in system, and every bill lands in exactly one bucket either way,
	// so per-query accounting keeps summing to node totals.
	n.bill(dataflow.CostMarshal)
	if sz := tuple.EncodedSize(t); cap(n.scratch) < sz {
		n.scratch = make([]byte, 0, sz)
	}
	n.scratch = tuple.Marshal(n.scratch[:0], t)
	n.met.MsgsSent++
	n.met.BytesSent += int64(len(n.scratch))
	if n.cfg.Send == nil {
		return
	}
	n.cfg.Send(dst, Envelope{Src: n.cfg.Addr, SrcTupleID: id, Raw: n.scratch}, n.Now())
}

// NumStrands returns the number of installed rule strands (the size of
// the node's dataflow graph, which the benchmark memory model uses).
func (n *Node) NumStrands() int {
	c := len(n.periodics)
	for _, r := range n.rels {
		c += len(r.strands)
	}
	return c
}
