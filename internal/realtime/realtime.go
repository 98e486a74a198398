// Package realtime drives P2 nodes with goroutines and wall-clock time
// instead of the discrete-event simulator: one goroutine per node
// serializes that node's tasks, links are buffered channels with optional
// delay, and periodic rules fire off time.Timer. The engine is identical
// — only the driver differs — so any program developed against simnet
// runs unmodified in real time.
//
// The simulator remains the right tool for benchmarks and reproducible
// tests; this driver exists for interactive use (cmd/p2node -realtime)
// and as the deployment shape a real P2 system would have. The hot path
// (task.go, udp.go, batch_linux.go) is engineered for sustained 100k+
// events/sec; docs/REALTIME.md describes the pipeline and its knobs,
// and internal/bench/realtime.go measures it.
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
	"net/http"
	"sort"
	"sync"
	"time"

	"p2go/internal/engine"
	"p2go/internal/metrics"
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

type host struct {
	node  *engine.Node
	tasks chan task
	done  chan struct{}
	// stopped is closed by the node goroutine as it exits, making
	// "goroutine no longer touching the node" an observable event —
	// after it, direct reads of the node are safe.
	stopped chan struct{}
	// stats counts transport-level outcomes for this host's inbound
	// queue. The channel transport has no wire, so only the receive-side
	// counters are populated (DatagramsRecv counts messages offered to
	// the host, bytes are payload bytes); send-side traffic is already
	// counted by the engine's own MsgsSent/BytesSent.
	stats transportCounters
}

// Network runs nodes in real time. Create it, AddNode + InstallProgram
// while stopped, then Start; Stop shuts every node goroutine down.
type Network struct {
	cfg   Config
	start time.Time
	rng   *rand.Rand
	rngMu sync.Mutex

	mu      sync.Mutex
	hosts   map[string]*host
	started bool
	wg      sync.WaitGroup
	metrics net.Listener
}

// NewNetwork creates a stopped real-time network.
func NewNetwork(cfg Config) *Network {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		hosts: make(map[string]*host),
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

// AddNode creates a node; must be called before Start.
func (n *Network) AddNode(addr string) (*engine.Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return nil, fmt.Errorf("realtime: AddNode after Start")
	}
	if _, ok := n.hosts[addr]; ok {
		return nil, fmt.Errorf("realtime: node %s already exists", addr)
	}
	h := &host{
		tasks:   make(chan task, n.cfg.QueueDepth),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
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
		OnNewPeriodic: func(p *engine.Periodic) { n.armTimer(h, p) },
		ExtraObs:      h.stats.obs,
	}
	if n.cfg.OnWatch != nil {
		cfg.OnWatch = func(now float64, t tuple.Tuple) { n.cfg.OnWatch(now, addr, t) }
	}
	if n.cfg.OnRuleError != nil {
		cfg.OnRuleError = func(now float64, ruleID string, err error) {
			n.cfg.OnRuleError(now, addr, ruleID, err)
		}
	}
	h.node = engine.NewNode(cfg)
	n.hosts[addr] = h
	return h.node, nil
}

// deliver enqueues a message task on the destination's goroutine after
// the sampled link delay, applying the network's overload policy.
// Messages to unknown nodes are dropped silently (as on a real datagram
// network); messages shed on a full queue are counted in the
// destination's DropOverload.
func (n *Network) deliver(dst string, env engine.Envelope) {
	n.mu.Lock()
	h, ok := n.hosts[dst]
	n.mu.Unlock()
	if !ok {
		return
	}
	env.Raw = bytes.Clone(env.Raw) // the sender's scratch; the queued task outlives Send
	sentNanos := time.Now().UnixNano()
	send := func() {
		h.stats.datagramsRecv.Add(1)
		h.stats.bytesRecv.Add(int64(len(env.Raw)))
		dropped, stopped := enqueue(h.tasks, h.done, n.cfg.Overload,
			task{at: time.Now(), sent: sentNanos, kind: taskMsg, env: env})
		if dropped {
			h.stats.dropOverload.Add(1)
		} else if stopped {
			h.stats.dropShutdown.Add(1)
		}
	}
	if d := n.randDelay(); d > 0 {
		time.AfterFunc(d, send)
	} else {
		send()
	}
}

// armTimer schedules a periodic trigger with jittered phase on a single
// resettable timer (see armPeriodic).
func (n *Network) armTimer(h *host, p *engine.Periodic) {
	period := time.Duration(p.Period() * float64(time.Second))
	n.rngMu.Lock()
	first := time.Duration(float64(period) * (0.05 + 0.95*n.rng.Float64()))
	n.rngMu.Unlock()
	armPeriodic(h.tasks, h.done, p, first)
}

// Inject hands a tuple to a node as a local event, honoring the
// network's overload policy: under OverloadDrop a full queue sheds the
// event (counted in the node's DropInject) and returns ErrOverload;
// under OverloadBlock the call waits for queue space.
func (n *Network) Inject(addr string, t tuple.Tuple) error {
	n.mu.Lock()
	h, ok := n.hosts[addr]
	running := n.started
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("realtime: no node %s", addr)
	}
	if !running {
		return fmt.Errorf("realtime: network not running")
	}
	dropped, stopped := enqueue(h.tasks, h.done, n.cfg.Overload,
		task{at: time.Now(), kind: taskLocal, tup: t})
	if stopped {
		return fmt.Errorf("realtime: node %s: %w", addr, ErrStopped)
	}
	if dropped {
		h.stats.dropInject.Add(1)
		return fmt.Errorf("realtime: node %s: %w", addr, ErrOverload)
	}
	return nil
}

// TransportStats snapshots a node's queue-level counters (message
// deliveries, overload drops, inject drops); safe against a running
// network.
func (n *Network) TransportStats(addr string) (TransportStats, error) {
	n.mu.Lock()
	h, ok := n.hosts[addr]
	n.mu.Unlock()
	if !ok {
		return TransportStats{}, fmt.Errorf("realtime: no node %s", addr)
	}
	return h.stats.snapshot(), nil
}

// Stats is one consistent snapshot of a node's counters, per-query
// bills, histograms and observability extras (engine.Node.ObsCounters),
// taken on the node's own goroutine.
type Stats struct {
	Node    metrics.Node
	Queries map[string]metrics.Query
	Hists   metrics.NodeHists
	Extras  []metrics.Counter
}

// MetricsSnapshot returns a consistent stats snapshot for a node, safe
// to call concurrently with a running network. The engine's counters
// have a single writer — the node goroutine — so the snapshot is taken
// as a task on that goroutine and handed back over a channel; while the
// network is stopped (no goroutine touching the node) it reads
// directly. This is the supported way to inspect a live realtime node;
// Network.Node remains stopped-only.
func (n *Network) MetricsSnapshot(addr string) (Stats, error) {
	n.mu.Lock()
	h, ok := n.hosts[addr]
	running := n.started
	n.mu.Unlock()
	if !ok {
		return Stats{}, fmt.Errorf("realtime: no node %s", addr)
	}
	read := func() Stats {
		return Stats{
			Node:    h.node.Metrics(),
			Queries: h.node.QueryMetrics(),
			Hists:   h.node.Hists(),
			Extras:  h.node.ObsCounters(),
		}
	}
	if !running {
		return read(), nil
	}
	ch := make(chan Stats, 1)
	select {
	case h.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() { ch <- read() }}:
	case <-h.stopped:
		return read(), nil // goroutine gone: direct read is safe
	}
	select {
	case s := <-ch:
		return s, nil
	case <-h.stopped:
		// Stopped before the snapshot task ran; the goroutine has fully
		// exited, so a direct read is safe now.
		return read(), nil
	}
}

// ServeMetrics exposes every node's counters, per-query bills and
// histograms as Prometheus text exposition on http://<addr>/metrics
// (cmd/p2node -realtime -metrics-addr). Each scrape takes one
// MetricsSnapshot per node, so it is safe against a running network.
// The returned address is the bound listen address (useful with port
// 0); the listener is closed by Stop.
func (n *Network) ServeMetrics(listen string) (string, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", fmt.Errorf("realtime: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		n.mu.Lock()
		addrs := make([]string, 0, len(n.hosts))
		for a := range n.hosts {
			addrs = append(addrs, a)
		}
		n.mu.Unlock()
		sort.Strings(addrs)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, a := range addrs {
			s, err := n.MetricsSnapshot(a)
			if err != nil {
				continue
			}
			if err := metrics.WritePrometheus(w, a, s.Node, s.Queries, &s.Hists, s.Extras...); err != nil {
				return
			}
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed listener on Stop ends Serve
	n.mu.Lock()
	n.metrics = ln
	n.mu.Unlock()
	return ln.Addr().String(), nil
}

// Node returns a node by address. The returned node must only be
// inspected while the network is stopped (nodes are not thread-safe).
func (n *Network) Node(addr string) *engine.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[addr]; ok {
		return h.node
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
	for _, h := range n.hosts {
		h := h
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer close(h.stopped)
			// Sweep soft state about once per second.
			sweep := time.NewTicker(time.Second)
			defer sweep.Stop()
			processed := func(t *task) { h.stats.datagramsProcessed.Add(1) }
			for {
				select {
				case <-h.done:
					return
				case t := <-h.tasks:
					drainBatch(h.node, h.tasks, t, processed)
				case <-sweep.C:
					h.node.Sweep()
				}
			}
		}()
	}
}

// Stop shuts all node goroutines down, waits for them, then accounts
// any message tasks still queued (DropShutdown) so the conservation law
// over TransportStats holds exactly even for an abrupt stop.
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return
	}
	n.started = false
	for _, h := range n.hosts {
		close(h.done)
	}
	ln := n.metrics
	n.metrics = nil
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range n.hosts {
	drain:
		for {
			select {
			case t := <-h.tasks:
				if t.kind == taskMsg {
					h.stats.dropShutdown.Add(1)
				}
			default:
				break drain
			}
		}
	}
}

// InstallAll installs a program on every node (before Start).
func (n *Network) InstallAll(prog *overlog.Program) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("realtime: InstallAll after Start")
	}
	for _, h := range n.hosts {
		if err := h.node.InstallProgram(prog); err != nil {
			return err
		}
	}
	return nil
}
