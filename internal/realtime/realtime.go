// Package realtime drives P2 nodes with goroutines and wall-clock time
// instead of the discrete-event simulator: one goroutine per node
// serializes that node's tasks (executor.go), and periodic rules fire
// off time.Timer. A node's messages arrive over one of two links: the
// in-process Network (buffered channels with optional delay) or a UDP
// socket (UDPNode). The engine is identical — only the driver differs —
// so any program developed against simnet runs unmodified in real time.
//
// The simulator remains the right tool for reproducible tests; this
// driver exists for interactive use (cmd/p2node -realtime) and as the
// deployment shape a real P2 system would have. The hot path
// (executor.go, udp.go, batch_linux.go) is engineered for sustained
// 100k+ events/sec; docs/REALTIME.md describes the pipeline and its
// knobs, and the benchmark's udp-collector workload measures it.
//
// Concurrency invariant: every engine.Node has exactly one writer — the
// goroutine serializing its tasks. The node's counters and histograms
// (metrics.Node, metrics.NodeHists) are therefore plain non-atomic
// values; reading them from any other goroutine while the node runs is
// a data race. Concurrent inspection goes through MetricsSnapshot
// (Network) or UDPNode.MetricsSnapshot, which run the read as a task on
// the owning goroutine. Transport-level counters, which producer
// goroutines update, are atomics (see transportCounters).
package realtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// Config configures a real-time network.
type Config struct {
	// Seed seeds per-node RNGs and delay sampling.
	Seed int64
	// MinDelay/MaxDelay bound the artificial one-way link delay.
	MinDelay, MaxDelay time.Duration
	// QueueDepth is the per-node task channel capacity (default 1024).
	QueueDepth int
	// Overload selects the full-queue policy for message delivery and
	// Inject: OverloadDrop (default, shed and count) or OverloadBlock
	// (backpressure — senders and injectors wait for queue space).
	Overload OverloadPolicy
	// OnWatch and OnRuleError mirror the simnet hooks. They are called
	// from node goroutines; implementations must be safe for concurrent
	// use.
	OnWatch     func(now float64, node string, t tuple.Tuple)
	OnRuleError func(now float64, node, ruleID string, err error)
}

// Network runs nodes in real time: one executor per node, linked by
// delayed in-process delivery. Create it, AddNode + InstallProgram while
// stopped, then Start; Stop shuts every node goroutine down.
type Network struct {
	cfg   Config
	start time.Time
	rng   *rand.Rand
	rngMu sync.Mutex

	mu      sync.Mutex
	nodes   map[string]*executor
	started bool
	metrics net.Listener
}

// NewNetwork creates a stopped real-time network.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[string]*executor),
	}
}

// now returns seconds since Start (0 before).
func (n *Network) now() float64 {
	if n.start.IsZero() {
		return 0
	}
	return time.Since(n.start).Seconds()
}

func (n *Network) randDelay() time.Duration {
	if n.cfg.MaxDelay <= 0 {
		return 0
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.cfg.MinDelay + time.Duration(n.rng.Int63n(int64(n.cfg.MaxDelay-n.cfg.MinDelay)+1))
}

// lookup finds a node's executor.
func (n *Network) lookup(addr string) (*executor, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.nodes[addr]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("realtime: no node %s", addr)
}

// executors lists every node's executor in address order.
func (n *Network) executors() []*executor {
	n.mu.Lock()
	defer n.mu.Unlock()
	all := make([]*executor, 0, len(n.nodes))
	for _, e := range n.nodes {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].node.Addr() < all[j].node.Addr() })
	return all
}

// AddNode creates a node; must be called before Start.
func (n *Network) AddNode(addr string) (*engine.Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return nil, fmt.Errorf("realtime: AddNode after Start")
	}
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("realtime: node %s already exists", addr)
	}
	e := newExecutor(n.cfg.QueueDepth, n.cfg.Overload, nil)
	n.rngMu.Lock()
	seed := n.rng.Int63()
	n.rngMu.Unlock()
	cfg := engine.Config{
		Addr:  addr,
		Seed:  seed,
		Clock: n.now,
		Send: func(dst string, env engine.Envelope, _ float64) {
			n.deliver(dst, env)
		},
		OnNewPeriodic: func(p *engine.Periodic) { n.armTimer(e, p) },
		ExtraObs:      e.stats.obs,
	}
	if n.cfg.OnWatch != nil {
		cfg.OnWatch = func(now float64, t tuple.Tuple) { n.cfg.OnWatch(now, addr, t) }
	}
	if n.cfg.OnRuleError != nil {
		cfg.OnRuleError = func(now float64, ruleID string, err error) {
			n.cfg.OnRuleError(now, addr, ruleID, err)
		}
	}
	e.node = engine.NewNode(cfg)
	n.nodes[addr] = e
	return e.node, nil
}

// deliver is the channel link: it hands a message to the destination's
// executor after the sampled link delay. Messages to unknown nodes are
// dropped silently (as on a real datagram network); messages shed on a
// full queue are counted in the destination's DropOverload, and ones
// whose delay outlives Stop in its DropShutdown.
func (n *Network) deliver(dst string, env engine.Envelope) {
	e, err := n.lookup(dst)
	if err != nil {
		return
	}
	env.Raw = bytes.Clone(env.Raw) // the sender's scratch; the queued task outlives Send
	sentNanos := time.Now().UnixNano()
	send := func() {
		e.receive(task{at: time.Now(), sent: sentNanos, kind: taskMsg, env: env}, len(env.Raw))
	}
	if d := n.randDelay(); d > 0 {
		time.AfterFunc(d, send)
	} else {
		send()
	}
}

// armTimer schedules a periodic trigger with jittered phase.
func (n *Network) armTimer(e *executor, p *engine.Periodic) {
	n.rngMu.Lock()
	jitter := 0.05 + 0.95*n.rng.Float64()
	n.rngMu.Unlock()
	e.arm(p, time.Duration(p.Period()*jitter*float64(time.Second)))
}

// Inject hands a tuple to a node as a local event, honoring the
// network's overload policy: under OverloadDrop a full queue sheds the
// event (counted in the node's DropInject) and returns ErrOverload;
// under OverloadBlock the call waits for queue space. An event injected
// before Start waits for it; after Stop the error is ErrStopped.
func (n *Network) Inject(addr string, t tuple.Tuple) error {
	e, err := n.lookup(addr)
	if err != nil {
		return err
	}
	if err := e.inject(t); err != nil {
		return fmt.Errorf("realtime: node %s: %w", addr, err)
	}
	return nil
}

// TransportStats snapshots a node's queue-level counters (message
// deliveries, overload drops, inject drops); safe against a running
// network.
func (n *Network) TransportStats(addr string) (TransportStats, error) {
	e, err := n.lookup(addr)
	if err != nil {
		return TransportStats{}, err
	}
	return e.stats.snapshot(), nil
}

// MetricsSnapshot returns a consistent stats snapshot for a node, safe
// to call concurrently with a running network (see executor.snapshot).
// This is the supported way to inspect a live realtime node;
// Network.Node remains stopped-only.
func (n *Network) MetricsSnapshot(addr string) (Stats, error) {
	e, err := n.lookup(addr)
	if err != nil {
		return Stats{}, err
	}
	return e.snapshot(), nil
}

// ServeMetrics exposes every node's counters, per-query bills and
// histograms as Prometheus text exposition on http://<addr>/metrics
// (cmd/p2node -realtime -metrics-addr), and the Go runtime's profiles
// under /debug/pprof/. Each scrape takes one
// MetricsSnapshot per node, so it is safe against a running network.
// The returned address is the bound listen address (useful with port
// 0); the listener is closed by Stop.
func (n *Network) ServeMetrics(listen string) (string, error) {
	ln, err := serveMetrics(listen, n.executors)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.metrics = ln
	n.mu.Unlock()
	return ln.Addr().String(), nil
}

// Node returns a node by address. The returned node must only be
// inspected while the network is stopped (nodes are not thread-safe).
func (n *Network) Node(addr string) *engine.Node {
	if e, err := n.lookup(addr); err == nil {
		return e.node
	}
	return nil
}

// Start launches every node goroutine and begins wall-clock time.
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.start = time.Now()
	for _, e := range n.nodes {
		e.start()
	}
}

// Stop shuts all node goroutines down and waits for them; what is still
// queued, or still in a delay timer, is booked to DropShutdown, so the
// conservation law over TransportStats holds exactly even for an abrupt
// stop (TestStopUnderLoad).
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return
	}
	n.started = false
	ln := n.metrics
	n.metrics = nil
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Not under mu: a node finishing its last batch may still send.
	nodes := n.executors()
	for _, e := range nodes {
		e.halt()
	}
	for _, e := range nodes {
		e.wait()
	}
}

// InstallAll installs a program on every node (before Start).
func (n *Network) InstallAll(prog *overlog.Program) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("realtime: InstallAll after Start")
	}
	for _, e := range n.nodes {
		if err := e.node.InstallProgram(prog); err != nil {
			return err
		}
	}
	return nil
}
