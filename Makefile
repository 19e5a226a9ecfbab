# Tier-1+ verification for the pathsep repo.
#
#   make check      vet + lint + build + race tests + determinism + fuzz smoke + obs-overhead + parallel-speedup + query-serving + path-serving + serve-bench gates + bench-module tests
#   make test       plain test run (the tier-1 gate)
#   make lint       run the repo-specific analyzers (cmd/pathsep-lint) over ./...
#   make determinism  full schedule-matrix byte-identity gate (GOMAXPROCS x workers x shuffled submission)
#   make fuzz-short short fuzz smoke of the graph/label/address decoders and Induced
#   make bench-obs  regenerate BENCH_obs.json (metrics on vs. off numbers)
#   make bench-parallel  parallel-build speedup gate (BENCH_parallel.json)
#   make bench-query     flat-vs-pointer query speedup gate (BENCH_query.json)
#   make bench-path      path-reporting serving gate (BENCH_path.json)
#   make bench-serve     in-process daemon self-load gate (BENCH_serve.json)
#   make bench-unit      the bench/ module's own tests (a separate Go module that ./... never reaches)

GO ?= go
FUZZTIME ?= 5s
# Cap per-input minimization so short smoke runs spend their budget
# mutating instead of shrinking the first large interesting input.
FUZZMINTIME ?= 50x

LINT_BIN := bin/pathsep-lint
LINT_SRC := $(wildcard cmd/pathsep-lint/*.go internal/analyzers/*.go internal/analyzers/*/*.go)

.PHONY: check test vet lint lint-json lint-stats determinism fuzz-short build race bench-overhead bench-obs bench-parallel bench-query bench-path bench-serve bench-unit

check: vet lint build race determinism fuzz-short bench-overhead bench-parallel bench-query bench-path bench-serve bench-unit

test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The vettool binary is cached under bin/ and rebuilt only when analyzer
# sources change.
$(LINT_BIN): $(LINT_SRC)
	$(GO) build -o $(LINT_BIN) ./cmd/pathsep-lint

lint: $(LINT_BIN)
	$(GO) vet -vettool=$(LINT_BIN) ./...

# Machine-readable lint: one JSON diagnostic per line (plus ::error
# annotations under GITHUB_ACTIONS). CI uses this form; the NDJSON
# stream is mirrored to LINT_findings.ndjson (created even when clean),
# which CI uploads as an artifact alongside the BENCH_*.json set.
lint-json: $(LINT_BIN)
	./$(LINT_BIN) -json -out=LINT_findings.ndjson ./...

# Per-analyzer finding and suppression counts: the findings come from
# the same vet run as lint-json; suppressions are the exception-granting
# directives (//pathsep:detached, //pathsep:lease-bypass, the
# writes=views grant) counted in non-test library sources. Rising
# suppressions with flat findings means exceptions are doing an
# analyzer's job — worth a look in review.
lint-stats: $(LINT_BIN)
	./$(LINT_BIN) -stats ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race ./...

# The runtime determinism gate: rebuild the oracle on three graph
# families across GOMAXPROCS {1,4}, workers {1,2,4,0} and shuffled task
# submission, and fail on any byte diff of the frozen flat images.
determinism:
	DETERMINISM_GATE=1 $(GO) test -run TestDeterminismGate -v .

# Fuzz targets as pkg:Func pairs; adding one is a one-line change here.
FUZZ_TARGETS := \
	internal/graph:FuzzGraphIO \
	internal/graph:FuzzInduced \
	internal/oracle:FuzzDecodeLabel \
	internal/oracle:FuzzDecodeFlat \
	internal/oracle:FuzzFlatRoundTrip \
	internal/routing:FuzzDecodeAddr \
	internal/serve:FuzzReloadImage

# Short coverage-guided runs of every fuzz target; seed corpora alone run
# in plain `go test`, this also mutates for FUZZTIME each.
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "$(GO) test -fuzz=$$fn ./$$pkg/"; \
		$(GO) test -fuzz=$$fn -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINTIME) ./$$pkg/; \
	done

# The disabled-path gate: must report 0 allocs/op on QueryDisabled.
bench-overhead:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchtime=1s .

bench-obs:
	EMIT_BENCH_OBS=1 $(GO) test -run TestEmitBenchObs -v .

# The parallel-build gate: workers=N must beat workers=1 by >= 1.5x on the
# 4k-vertex grid (ratio enforced only when GOMAXPROCS >= 4; narrower
# machines record the measurement with a "skipped": "single-core" marker).
bench-parallel:
	BENCH_PARALLEL_GATE=1 $(GO) test -run TestParallelBuildSpeedupGate -v .

# The query-serving gate: Flat.Query must beat Oracle.Query by >= 1.5x
# ns/op on the 4k-vertex grid and take 0 allocs/op; the measured numbers
# land in BENCH_query.json.
bench-query:
	BENCH_QUERY_GATE=1 $(GO) test -run TestQueryServingGate -v .

# The path-reporting gate: with a warm reused caller buffer Flat.QueryPath
# must allocate nothing and cost at most 2.5x a flat distance query
# (best of three paired rounds — scheduler noise only inflates). The
# measured numbers land in BENCH_path.json.
bench-path:
	BENCH_PATH_GATE=1 $(GO) test -run TestPathServingGate -v .

# The serving gate: stand up the pathsepd engine in-process, self-load it
# (concurrent GET /query then binary batches), and record QPS + latency
# percentiles in BENCH_serve.json; zero errors and a sane p99 required.
bench-serve:
	BENCH_SERVE_GATE=1 $(GO) test -run TestServeBenchGate -v .

# bench/ is its own Go module (it replaces pathsep with ../), so the root
# ./... never compiles it; this runs its tests against the tree, catching
# an API change that would break bench/run.sh.
bench-unit:
	$(GO) -C bench test ./...
