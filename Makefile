# Tier-1 (the seed gate) and tier-1b (the concurrency gate) targets.
# `make check` is what CI runs; see .github/workflows/ci.yml.

GO ?= go

.PHONY: loc build test race vet bench-harness bench bench-smoke e2e chaos check

# Non-test Go lines under internal/ and cmd/: ROADMAP counts net-negative
# internal/ lines as a success metric, so every check log carries the number
# — and beside it the number of command-line options the daemons define. The
# internal figure counts product code: internal/e2e is a process harness that
# only e2e/*_test.go and internal/experiments/e2e.go import, so it is left
# out and printed on its own line.
loc:
	@printf 'internal non-test Go lines: '; find internal -path internal/e2e -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
	@for d in internal/e2e cmd; do printf '%s non-test Go lines: ' $$d; find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; done
	@printf 'cmd flag definitions: '; grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var)\(' cmd --include='*.go' | wc -l

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Tier-1b: the whole suite under the race detector, including the
# concurrency stress tests in internal/core (TestCompileRouteChangeRace,
# TestParallelCompileStress).
race:
	$(GO) test -race ./...

# The benchmark harness exactly as BENCHMARK.json's command runs it, every
# workload for one second: it exits non-zero on any oracle or validity
# failure, so a harness that stops running fails the check.
bench-harness:
	bash benchmark/run.sh --workload all --seed 1 --seconds 1 --trace 0

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# One iteration of the compilation benchmarks: catches benchmarks that no
# longer build or crash without paying for a full measured run. The
# data-plane lookup benchmarks then run at a fixed iteration count and land
# in BENCH_dataplane.json (ns/op, cache hit-rate, speedup vs. the recorded
# pre-cache baseline in BENCH_baseline.json) so the perf trajectory is
# tracked across PRs. The route-server churn pipeline benchmark lands in
# BENCH_routeserver.json the same way, diffed against the recorded
# pre-batching baseline in BENCH_routeserver_baseline.json. The full-DFZ
# scale experiment (1M-prefix synthetic table: load time, steady-state
# churn, resident footprint) lands in BENCH_fullscale.json; sdx-bench
# exits nonzero — failing this target — if resident memory exceeds the
# 2 GB ceiling. The million-client analytics experiment (1M distinct
# sources through the sampled-flow pipeline; top-k/policy/drop estimates
# checked against exact ground truth) lands in BENCH_analytics.json the
# same way. The forwarding benchmark regex also picks up
# BenchmarkSwitchForwardingSampled, the 1-in-1024 sampling-overhead guard,
# and the BenchmarkSwitchForwardingAggregate10k pair (10k rules, a fresh
# 5-tuple per frame — the megaflow tier's worst honest case, single and
# batched). The line-rate experiment (1M clients of aggregate traffic
# through one switch via InjectBatch) lands in BENCH_linerate.json with
# throughput-vs-recorded-baseline, megaflow hit-rate, allocation, and p99
# gates; the pre-megaflow baseline is BENCH_linerate_baseline.json. The
# route-server cluster experiment (live BGP sessions into a leader frontend
# and its log, streamed to TCP followers with one stream severed mid-run)
# lands in BENCH_cluster.json with drain/resume/flush/equivalence gates.
# Finally sdx-benchjson -validate re-checks every recorded result file:
# positive iterations/ns-op for report-shaped files, every *_ok gate true
# for experiment-shaped ones.
bench-smoke:
	$(GO) test -bench=Compile -benchtime=1x -run '^$$' .
	$(GO) test -bench='BenchmarkSwitchForwarding|BenchmarkFlowTableLookup' -benchtime=2000x -run '^$$' . \
		| $(GO) run ./cmd/sdx-benchjson -baseline BENCH_baseline.json -out BENCH_dataplane.json
	@cat BENCH_dataplane.json
	$(GO) test -bench=BenchmarkChurnPipeline -benchtime=3x -run '^$$' . \
		| $(GO) run ./cmd/sdx-benchjson -baseline BENCH_routeserver_baseline.json -out BENCH_routeserver.json
	@cat BENCH_routeserver.json
	$(GO) run ./cmd/sdx-bench -experiment fullscale -json BENCH_fullscale.json
	@cat BENCH_fullscale.json
	$(GO) run ./cmd/sdx-bench -experiment analytics -json BENCH_analytics.json
	@cat BENCH_analytics.json
	$(GO) run ./cmd/sdx-bench -experiment linerate -json BENCH_linerate.json
	@cat BENCH_linerate.json
	$(GO) run ./cmd/sdx-bench -experiment cluster -json BENCH_cluster.json
	@cat BENCH_cluster.json
	$(GO) run ./cmd/sdx-bench -experiment e2e-shutdown -json BENCH_e2e_shutdown.json
	@cat BENCH_e2e_shutdown.json
	$(GO) run ./cmd/sdx-bench -experiment e2e-vrf -json BENCH_e2e_vrf.json
	@cat BENCH_e2e_vrf.json
	$(GO) run ./cmd/sdx-bench -experiment e2e-multicast -json BENCH_e2e_multicast.json
	@cat BENCH_e2e_multicast.json
	$(GO) run ./cmd/sdx-benchjson -validate BENCH_*.json

# Daemon-level end-to-end suite: every scenario boots real sdx binaries as
# separate processes over real TCP/UDP on localhost and asserts on their
# logs and /metrics — graceful vs hard-kill shutdown (RFC 4486 Cease
# subcode 2 observed only for graceful), multi-tenant VRF isolation with
# overlapping prefixes, multicast group replication through a real
# switch, and leader/active/standby failover of the replicated controller.
# The first three also run as sdx-bench e2e-* experiments in bench-smoke.
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

check: loc vet test race bench-harness
