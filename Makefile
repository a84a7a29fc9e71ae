GO ?= go

.PHONY: check build vet test race shuffle cover lint lint-fix lint-sarif baseline bench bench-oracle bench-sim bench-sweep bench-service fuzz digest-1m

# check is the full gate CI runs: compile, vet, race-enabled tests, and
# the repo's own static-analysis suite (cmd/bplint).
check: build vet race lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

shuffle:
	$(GO) test -shuffle=on ./...

cover:
	$(GO) test -cover ./...

# lint runs the full analyzer suite against the committed grandfather
# list; only findings beyond lint/baseline.json fail.
lint:
	$(GO) run ./cmd/bplint -baseline lint/baseline.json ./...

# lint-fix applies every mechanical suggested fix (stale-ignore
# deletions) in place, then reports what remains.
lint-fix:
	$(GO) run ./cmd/bplint -baseline lint/baseline.json -fix ./...

# lint-sarif emits the machine-readable report CI uploads as an artifact.
lint-sarif:
	$(GO) run ./cmd/bplint -baseline lint/baseline.json -format sarif ./... > bplint.sarif || true

# baseline regenerates lint/baseline.json from the current tree. Run it
# only when deliberately grandfathering new debt or after burning
# baselined findings down.
baseline:
	$(GO) run ./cmd/bplint -baseline lint/baseline.json -update-baseline ./...

# digest-1m is the 1M report digest gate: the full -json report at
# -n 1000000 must hash to the committed experiments_1m.json.sha256 at
# -parallel 1, at -parallel 2 and with -sweep-shards 2 (about 30 s wall
# per run on 2 cores). experiments_1m.txt is the matching text report.
digest-1m:
	@want=$$(cat experiments_1m.json.sha256); \
	for flags in "-parallel 1" "-parallel 2" "-sweep-shards 2"; do \
		got=$$($(GO) run ./cmd/experiments -n 1000000 -q -json $$flags | sha256sum | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			echo "digest-1m: $$flags: sha256 $$got, want $$want"; exit 1; \
		fi; \
		echo "digest-1m: $$flags: ok"; \
	done

# fuzz runs every native fuzz target for FUZZTIME each (CI's fuzz-smoke
# job uses 30s). Plain `go test` already replays the committed seed
# corpora under testdata/fuzz/ as regression tests.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz 'FuzzTraceRead' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz 'FuzzReadBlocks' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz 'FuzzCorpusDecode' -fuzztime $(FUZZTIME) -run '^$$' ./internal/corpus/
	$(GO) test -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) -run '^$$' ./internal/bp/

# bench smoke-runs every benchmark in the root harness — including the
# 1M-branch kernel and sweep suites, which is why it pins -benchtime 1x
# and a generous timeout instead of letting the default benchtime spin
# each of them for seconds. Use bench-oracle/bench-sim/bench-sweep for
# measurement-quality numbers.
bench:
	$(GO) test -bench=. -benchtime 1x -benchmem -run=^$$ -timeout 30m .

# bench-oracle refreshes the recorded columnar-kernel baseline: the
# oracle benchmarks (reference vs kernel at 100k and 1M branches) piped
# through cmd/benchjson into BENCH_oracle.json. The 1M speedup pairs are
# the acceptance numbers for the kernels (>= 2x).
bench-oracle:
	$(GO) test -run '^$$' -bench '(PackedTraceBuild|OracleProfile|OracleJoint)' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_oracle.json

# bench-sim refreshes the recorded simulation-engine baseline: the
# per-predictor reference-vs-kernel benchmarks at 100k and 1M branches
# piped through cmd/benchjson into BENCH_sim.json. The 1M speedup pairs
# for gshare and bimodal are the acceptance numbers for the columnar
# engine (>= 3x).
bench-sim:
	$(GO) test -run '^$$' -bench 'SimPredictor' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-sweep refreshes the recorded fused-sweep baseline: whole-grid
# benchmarks (independent per-config kernel runs vs one fused pass vs
# the config-sharded scheduler at 1/2/NumCPU shards, at 100k and 1M
# branches) piped through cmd/benchjson into BENCH_sweep.json. Each
# benchmark's branches/s metric is aggregate throughput (configs ×
# branches / wall); the 15-config gshare-hist grid at 1M is the
# headline pair, and its shards=NumCPU row is the multi-core ceiling
# (every row is stamped with its GOMAXPROCS and shard count). The
# differential gate runs first — recording throughput for an engine
# whose equivalence tests fail would be meaningless — and the shards
# benchmarks themselves fail loudly (assertFusedEngagement) if any
# iteration leaves the fused path. A single-core run still emits
# shards=2 rows, but only real cores turn them into speedup.
bench-sweep:
	$(GO) test -run 'Sweep|PredictorGrid|Shard' ./internal/bp/ ./internal/sim/ ./internal/core/
	$(GO) test -run '^$$' -bench 'SimSweep' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_sweep.json

# bench-service refreshes the recorded service baseline: the bpsimd
# engine room measured over live HTTP (cold compute path, warm replay
# path, sweep/oracle/upload endpoints, and concurrent mixed load) piped
# through cmd/benchjson into BENCH_service.json. The determinism gate
# runs first — the service tests include the parallel-load differential,
# and recording throughput for a server whose payloads drift under
# concurrency would be meaningless. Cold vs warm time/op on the simulate
# pair is the caching win; the sweep row's aggregate branches/s is
# comparable to BENCH_sweep.json's fused rows (the gap is the service
# envelope).
bench-service:
	$(GO) test -race ./internal/service/ ./internal/api/...
	$(GO) test -run '^$$' -bench 'Service' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_service.json
