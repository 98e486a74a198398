# Convenience targets; everything is plain `go` underneath.

.PHONY: build test check cover bench bench-e2e bench-churn bench-lifecycle bench-trace bench-profiler bench-forensics bench-scale bench-aggtree fuzz examples tidy

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Full gate: build + vet + tests with the race detector, then the
# benchmark, which is a module of its own that `./...` does not descend
# into: an internal/ API change that breaks it must fail here, not when
# the benchmark is next run. Some allocation gates are `//go:build !race`
# (realtime's receive-buffer pool, a struct field whose buffers cross
# goroutines, and code the race build instruments), so the gates get a
# run without -race too. TestWorkloadsRepeat in the benchmark's tests is red:
# its two tiny in-process runs differ by more objects than its 1 % bound
# allows, which at 87 objects a run admits none. With scratch kept by its
# driver, a run's own allocation count follows from its seed; ROADMAP's
# first open item measured three sources of stray objects on top. Two are
# the harness's: the process's first runtime/metrics read, counted in the
# first run only, and a collection or an OS-thread start inside a phase.
# The third was the program's, the type-assertion cache the runtime built
# at a random 1 in 1024 of the calls that converted a strand's Context to
# an overlog.Context; strands now hand expressions Context.Env, which
# converts nothing, so it is gone. The harness fixes are benchmark-only.
check:
	go build ./...
	go vet ./...
	go test -race ./...
	go test -run 'Allocs' ./internal/...
	go vet -C benchmark ./...
	go test -C benchmark ./...

cover:
	go test -cover ./internal/...

# The full §4 evaluation: tens of minutes (Figures 6-7 average three
# seeds per point, like the paper).
bench:
	go test -timeout 0 -bench=. -benchmem ./...

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): four
# fixed-work workloads measured in wall clock, CPU, allocations and live
# heap, each checked against its oracle. About a minute; add
# ARGS="-layers" for the traced per-layer run.
bench-e2e:
	bash benchmark/run.sh $(ARGS)

# The churn experiment: crash/rejoin a 21-node ring with the §3.1
# detectors deployed; prints the repair/detection table.
bench-churn:
	go run ./cmd/p2bench -exp churn

# The query-lifecycle experiment: install, meter and uninstall each §3.1
# detector on a converged 21-node ring; prints the marginal-cost table.
bench-lifecycle:
	go run ./cmd/p2bench -exp lifecycle

# Causal trace export: runs a traced 21-node ring with lookups from the
# measured node, writes TRACE_chrome.json (load into chrome://tracing or
# Perfetto) and TRACE_metrics.prom.
bench-trace:
	go run ./cmd/p2bench -exp trace

# What reading the stats tables costs: the churn run without and with
# the §3.2 profiler sweeping nodeStats/queryStats on every node.
bench-profiler:
	go run ./cmd/p2bench -exp profiler

# Durable trace store forensics: traced churn with the store off vs on
# (write overhead, bytes/record, restart markers), ancestor-query latency
# at 1/10/100-window horizons, and the store off|on determinism check.
bench-forensics:
	go run ./cmd/p2bench -exp forensics

# The scale wall: 100/1k/10k-host Chord sweep with bytes-per-host and
# events/sec curves, the shared-vs-private plan memory gate, and the
# check that every host of a 100-host ring shares the Chord plans.
bench-scale:
	go run ./cmd/p2bench -exp scale

# Cluster queries over in-network aggregation trees: 1000-host tree
# (fanout 8) vs flat collection (the fanout-N overlay) with the
# exactness, fan-in (>=10x reduction), billing and determinism gates.
bench-aggtree:
	go run ./cmd/p2bench -exp aggtree

fuzz:
	go test -run '^$$' -fuzz FuzzUnmarshal -fuzztime 30s ./internal/tuple/
	go test -run '^$$' -fuzz FuzzValueCodec -fuzztime 30s ./internal/tuple/
	go test -run '^$$' -fuzz FuzzValueOps -fuzztime 30s ./internal/tuple/
	go test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/overlog/
	go test -run '^$$' -fuzz FuzzCompile -fuzztime 30s ./internal/overlog/
	go test -run '^$$' -fuzz FuzzSegmentRoundTrip -fuzztime 30s ./internal/tracestore/
	go test -run '^$$' -fuzz FuzzDatagram -fuzztime 30s ./internal/realtime/
	go test -run '^$$' -fuzz FuzzInstallUninstall -fuzztime 30s ./internal/engine/
	go test -run '^$$' -fuzz FuzzStream -fuzztime 30s ./internal/rng/
	go test -run '^$$' -fuzz FuzzRunQueue -fuzztime 30s ./internal/simnet/
	go test -run '^$$' -fuzz FuzzAggMaint -fuzztime 30s ./internal/dataflow/
	go test -run '^$$' -fuzz FuzzRingMatchesEager -fuzztime 30s ./internal/trace/
	go test -run '^$$' -fuzz FuzzTableMatchesRef -fuzztime 30s ./internal/table/
	go test -run '^$$' -fuzz FuzzRangeProbe -fuzztime 30s ./internal/table/

examples:
	go run ./examples/quickstart
	go run ./examples/chainrep
	go run ./examples/chordmon
	go run ./examples/profiling
	go run ./examples/snapshot

tidy:
	gofmt -w .
	go mod tidy
