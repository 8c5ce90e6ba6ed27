# Tier-1 (the seed gate) and tier-1b (the concurrency gate) targets.
# CI (.github/workflows/ci.yml) runs `make check`'s steps, then `make e2e`
# and `make chaos`: those boot real daemons and hammer the chaos tests for
# minutes, so they stay out of `check`.

GO ?= go

.PHONY: loc fmt build test race vet bench-harness bench fuzz e2e chaos check

# Non-test Go lines under internal/, e2e/ and cmd/: ROADMAP counts
# net-negative internal/ lines as a success metric, so every check log
# carries the number — and beside it the number of command-line options the
# daemons define.
loc:
	@for d in internal e2e cmd; do printf '%s non-test Go lines: ' $$d; find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; done
	@printf 'cmd flag definitions: '; grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var)\(' cmd --include='*.go' | wc -l

# Every Go file gofmt-clean: fails listing the files that are not.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Tier-1b: the whole suite under the race detector, including the
# concurrency stress tests in internal/core (TestCompileRouteChangeRace,
# TestConcurrentCompileStress).
race:
	$(GO) test -race ./...

# The benchmark harness exactly as BENCHMARK.json's command runs it, every
# workload for BENCHMARK.json's run_seconds (10 s): it exits non-zero on any
# oracle or validity failure, so a harness that stops running fails the
# check. A 1 s run is not enough: only a full-length run reaches the
# windows, background recompilations and cycle counts the benchmark
# measures, so an oracle that fails late shows only there (about 80 s wall
# for all seven workloads on a 2-core VM).
bench-harness:
	bash benchmark/run.sh --workload all --seed 1 --seconds 10 --trace 0

# Every benchmark in the root bench_test.go, internal/dataplane
# (BenchmarkFlowTableDiffPush's shape=diff SetBase diffs and shape=fast
# quick-stage pushes above every rule, BenchmarkInjectTelemetryOverhead),
# internal/policy (BenchmarkCompileDisjointUnion, the compiler's Union over
# 300 port-disjoint participants; BenchmarkCompileSeq, its outbound >>
# inbound sequential composition at 300 participants) and
# internal/routeserver (BenchmarkBestFor, 40 participants each reading 10k
# prefixes with no filter, an export filter and VRFs), once: keeps them
# compiling and running, and puts the Union's and the composition's
# compile times and the route server's read cost in every check log.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' . ./internal/dataplane ./internal/policy ./internal/routeserver

# Every Fuzz* target in the module for ten seconds each (plain `go test`
# runs only their seed corpora). A failing input lands in the package's
# testdata/fuzz directory, where `go test` replays it from then on. Go's
# minimizer is quadratic in input length, so a target seeded with a
# multi-kilobyte message (FuzzDecodeFlowStatsReply's table dump) would spend
# its whole budget shrinking each new interesting input: minimizing is
# capped at 5 s (that target, cold cache, 60 s on a 2-core VM: 6.7k execs
# uncapped, 157k capped).
fuzz:
	@set -e; for f in $$(grep -rlE '^func Fuzz' --include='*_test.go' --exclude-dir='.[!.]*' .); do \
		for t in $$(grep -oE '^func Fuzz[A-Za-z0-9_]*' $$f | cut -d' ' -f2); do \
			echo "fuzz $$(dirname $$f) $$t"; \
			$(GO) test $$(dirname $$f) -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s -fuzzminimizetime 5s; \
		done; \
	done

# Daemon-level end-to-end suite: every scenario boots real sdx binaries as
# separate processes over real TCP/UDP on localhost and asserts on their
# logs and /metrics — graceful vs hard-kill shutdown (RFC 4486 Cease
# subcode 2 observed only for graceful), multi-tenant VRF isolation with
# overlapping prefixes, multicast group replication through a real
# switch, and leader/active/standby failover of the replicated controller.
e2e: build
	$(GO) test ./e2e -count=1 -timeout 10m -v

# The chaos tests (control channels killed and restored mid-churn; the
# active controller killed mid-churn and a log-replaying standby promoted;
# final flow tables must converge byte-identically in both) run once as
# part of `race`/`check`; `chaos` hammers them under the race detector to
# surface rare interleavings. The e2e soak then cycles a REAL bgpd/controller
# pair through partitions (via a severable fault proxy), hard kills, and
# graceful restarts, requiring re-establishment after every fault.
chaos:
	$(GO) test -race -count=20 -run 'TestChaosControlPlaneConvergence|TestChaosClusterFailover' ./internal/core/
	SDX_E2E_SOAK=1 $(GO) test ./e2e -run TestE2ESoak -count=1 -timeout 10m -v

check: loc fmt vet test race bench-harness bench fuzz
