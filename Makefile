# Mirrors .github/workflows/ci.yml: `make ci` is what CI runs.

GO ?= go

# Benchmarks covered by the smoke run: the query hot paths, the rollup/
# ingest paths whose regressions matter (summary, scope generations,
# monitor-shaped batched appends), the durability paths (WAL-enabled
# batch ingest, WAL append+flush cycle, boot-time replay), and the
# change-feed paths (publish round, 1/64/512-subscriber fan-out, and the
# blocked-watcher ingest twin that proves slow consumers cannot stall
# appends), the advisor ranking path (BenchmarkAdvise matches the
# generation-cached variant too), and the metrics overhead pair
# (BenchmarkObsOverhead runs each instrumented hot path against its
# nil-registry twin — the two must stay within noise of each other).
BENCH_SMOKE = BenchmarkQueryStable|BenchmarkQuerySummary|BenchmarkStoreRegionAggregates|BenchmarkGenerationOfScope|BenchmarkStoreAppendMonitorTick|BenchmarkStoreAppendProbesBatchParallel|BenchmarkWALAppend|BenchmarkReplay|BenchmarkFeedPublish|BenchmarkFeedFanout|BenchmarkAdvise|BenchmarkPriceStatsIn|BenchmarkSpikesInWindow|BenchmarkEventsSince|BenchmarkObsOverhead

# Benchmark iteration control. The CI smoke keeps the 1x default (it only
# proves the benchmarks run); any measurement that will be *compared* —
# the committed baseline above all — must use enough iterations that
# per-op numbers are averages, not a single cold pass. Override per run:
# `make bench BENCH_TIME=2s BENCH_COUNT=5`.
BENCH_TIME ?= 1x
BENCH_COUNT ?= 1

# bench-diff inputs: OLD defaults to the committed baseline, NEW to the
# latest smoke run.
OLD ?= bench-baseline.txt
NEW ?= bench-smoke.txt

.PHONY: all build test vet fmt-check bench bench-diff bench-baseline smoke loadgen-smoke chaos-smoke fuzz-smoke example-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# Benchmark smoke: compile and run each perf-critical query path once
# (BenchmarkQueryStable matches the cached variant too). Capture-then-cat
# instead of tee so the exit status survives /bin/sh.
bench:
	@$(GO) test -bench='$(BENCH_SMOKE)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -run='^$$' . >bench-smoke.txt 2>&1; \
	rc=$$?; cat bench-smoke.txt; exit $$rc

# bench-diff compares two benchmark outputs (`make bench-diff OLD=a NEW=b`)
# so rollup hot-path regressions are visible at a glance: benchstat when
# installed, a plain unified diff otherwise.
bench-diff:
	@if [ ! -f "$(OLD)" ] || [ ! -f "$(NEW)" ]; then \
		echo "bench-diff: need $(OLD) and $(NEW) (run 'make bench'; refresh the baseline with 'make bench-baseline')" >&2; \
		exit 1; \
	fi; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$(OLD)" "$(NEW)"; \
	else \
		echo "bench-diff: benchstat not installed, showing raw diff ($(OLD) -> $(NEW))"; \
		diff -u "$(OLD)" "$(NEW)" || true; \
	fi

# bench-baseline refreshes the committed comparison point for bench-diff.
# The baseline is measured, not smoked: it defaults to enough iterations
# that the recorded ns/op and B/op are stable averages (a 1x baseline
# once recorded the cached summary query as slower than the uncached one
# purely from first-iteration effects).
bench-baseline: BENCH_TIME = 100x
bench-baseline: bench
	cp bench-smoke.txt $(OLD)

# HTTP smoke: boot spotlightd on an ephemeral port, issue one v2 batch
# query against it through the pkg/client SDK, and exit.
smoke:
	$(GO) run ./cmd/spotlightd -addr 127.0.0.1:0 -smoke

# Scale-out smoke: spotload boots a leader, a read replica following it
# over /v2/watch, and a scatter-gather gateway fronting both, then loads
# the gateway and writes the latency distribution to spotload-report.txt
# (archived by CI next to bench-smoke.txt). Fails unless every request
# succeeded against the 2-node fleet AND every node's /metrics serves
# its role's core series; the raw expositions land in metrics-dump.txt.
loadgen-smoke:
	$(GO) run ./cmd/spotload -smoke -report spotload-report.txt -metrics-dump metrics-dump.txt

# Chaos smoke: the failure-domain drill, under the race detector. One
# process boots a leader, a durable follower behind a fault-injecting
# TCP proxy, a memory follower, and a gateway with injected delays and
# resets, then — while load runs — kills streams, restarts the durable
# follower from disk (byte-comparing it against the never-killed
# replica, ETags included), kills the leader, and promotes a follower.
# Fails unless gateway read availability stays >= 99% and replication
# stays exactly-once. Report archived by CI next to spotload-report.txt;
# the end-of-drill /metrics expositions land in chaos-metrics-dump.txt.
chaos-smoke:
	$(GO) run -race ./cmd/spotload -chaos -report chaos-report.txt -metrics-dump chaos-metrics-dump.txt

# Decision-layer smoke: run the fleet-manager example end to end — an
# /v2/advise call through the client SDK, then the threshold vs
# feedback-control head-to-head on a short identically-seeded run.
example-smoke:
	$(GO) run ./examples/fleet-manager -days 1 -target 2

# Fuzz smoke: a short native-fuzz burst over the WAL frame decoder and
# the snapshot shard decoder (malformed input must error, never panic).
# The checked-in seed corpora live in internal/store/testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshotV2Decode$$' -fuzztime=10s

ci: build fmt-check vet test smoke loadgen-smoke chaos-smoke example-smoke fuzz-smoke bench
