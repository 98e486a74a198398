// Package realtime drives P2 nodes with goroutines and wall-clock time
// instead of the discrete-event simulator: one goroutine per node
// serializes that node's tasks (executor.go), periodic rules fire off
// time.Timer, and a node's messages cross a UDP socket (UDPNode). The
// engine is identical — only the driver differs — so any program
// developed against simnet runs unmodified in real time.
//
// The simulator remains the right tool for reproducible tests; this
// driver exists for interactive use (cmd/p2node -realtime runs its nodes
// as UDPNodes over loopback) and as the deployment shape a real P2
// system would have. The hot path (executor.go, udp.go, batch_linux.go)
// is engineered for sustained 100k+ events/sec; docs/REALTIME.md
// describes the pipeline and its knobs, and the benchmark's
// udp-collector workload measures it.
//
// Concurrency invariant: every engine.Node has exactly one writer — the
// goroutine serializing its tasks. The node's counters and histograms
// (metrics.Node, metrics.NodeHists) are therefore plain non-atomic
// values; reading them from any other goroutine while the node runs is
// a data race. Concurrent inspection goes through UDPNode.MetricsSnapshot,
// which runs the read as a task on the owning goroutine. Transport-level
// counters, which producer goroutines update, are atomics (see
// transportCounters).
package realtime
