# Tier-1+ verification for the pathsep repo.
#
#   make check      vet + lint + build + race tests + determinism + fuzz smoke + memory budget + obs-overhead + parallel-speedup + query-serving + path-serving + serving gates + bench-module tests
#   make test       plain test run (the tier-1 gate)
#   make lint       run the repo-specific analyzers (cmd/pathsep-lint) over ./...
#   make determinism  full schedule-matrix byte-identity gate (GOMAXPROCS x workers x shuffled submission)
#   make fuzz-short short fuzz smoke of the graph/label/address decoders, Induced, the walk layout, the build rows, image reloads and the query handlers
#   make memory-budget  the decomposition's, the build's and the flat image's memory budgets at pool widths 1, 2, 4 and 8
#   make bench-obs  metrics on vs. off numbers (.bench_build/BENCH_obs.json)
#   make bench-parallel  parallel-build speedup gate (.bench_build/BENCH_parallel.json)
#   make bench-query     flat-vs-pointer query speedup gate (.bench_build/BENCH_query.json)
#   make bench-path      path-reporting serving gate (.bench_build/BENCH_path.json)
#   make bench-serve     serving gate: bench/run.sh drives pathsepd on the reload and bulk workloads (.bench_build/BENCH_serve-*.txt)
#
# The gates write their measurements under the ignored .bench_build/, so
# make check leaves the tracked tree as it found it.
#   make bench-unit      the bench/ module's own tests (a separate Go module that ./... never reaches)
#   make loc BASE=<rev>  Go lines added and removed against BASE (code/comment/blank), non-test and _test.go files in two tables

GO ?= go
FUZZTIME ?= 5s
# Cap per-input minimization so short smoke runs spend their budget
# mutating instead of shrinking the first large interesting input.
FUZZMINTIME ?= 50x

LINT_BIN := bin/pathsep-lint
LINT_SRC := $(wildcard cmd/pathsep-lint/*.go internal/analyzers/*.go internal/analyzers/*/*.go)

.PHONY: check test vet lint lint-json determinism fuzz-short memory-budget build race bench-overhead bench-obs bench-parallel bench-query bench-path bench-serve bench-unit loc

check: vet lint build race determinism fuzz-short memory-budget bench-overhead bench-parallel bench-query bench-path bench-serve bench-unit

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
# which CI uploads as an artifact alongside the .bench_build/BENCH_*.json
# set.
lint-json: $(LINT_BIN)
	./$(LINT_BIN) -json -out=LINT_findings.ndjson ./...

build:
	$(GO) build ./...

# The walk derivation runs on a pool whose width follows GOMAXPROCS: its
# counting pass reads the key partition's slot map by entry ranges, then
# each key task reads that map within its key and writes it over as
# walkSlot, and the big keys' task hands its scratch set to the small-key
# tasks; Freeze builds the partition and its link marks by vertex and
# record ranges of that width. So the decode's bit-for-bit check against
# the frozen Flat, the differential against the whole-pool reference and
# the cross-key refusals also run under the race detector at every width
# a runner may have (-short keeps them to the 64×64 grid). So does the
# build's differential against the searched reference: its link round
# reads other vertex ranges' forward maps and rows one pool round after
# they are written, and the range count follows the width.
race:
	$(GO) test -race ./...
	$(GO) test -race -short -cpu 1,2,4,8 -run '^(TestDecodeRestoresPositions|TestWalkLayoutMatchesReference|TestDecodeFlatRejectsCrossKeyHop)$$' ./internal/oracle/
	$(GO) test -race -short -cpu 1,2,4,8 -run '^TestBuildRowsMatchReference$$' ./internal/oracle/

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
	internal/oracle:FuzzWalkLayout \
	internal/oracle:FuzzBuildRows \
	internal/routing:FuzzDecodeAddr \
	internal/serve:FuzzReloadImage \
	internal/serve:FuzzQueryHandlers

# Short coverage-guided runs of every fuzz target; seed corpora alone run
# in plain `go test`, this also mutates for FUZZTIME each.
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "$(GO) test -fuzz=$$fn ./$$pkg/"; \
		$(GO) test -fuzz=$$fn -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINTIME) ./$$pkg/; \
	done

# The walk derivation's scratch depends on the pool width (beside the
# big keys' set, one set per other worker, sized to the largest key over
# the width), and so do Freeze's link marks (one set per worker) and its
# key partition's counters (one row per worker), so the decode's and the
# build's budgets run at every width a runner may have, not only at this
# machine's GOMAXPROCS; so does the decomposition's, whose tasks run on a
# pool of that width.
memory-budget:
	$(GO) test -cpu 1,2,4,8 -run '^(TestFlatMemoryBudget|TestBuildMemoryBudget)$$' ./internal/oracle/
	$(GO) test -cpu 1,2,4,8 -run '^TestDecomposeMemoryBudget$$' ./internal/core/

# The disabled-path gate: must report 0 allocs/op on QueryDisabled.
bench-overhead:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchtime=1s .

bench-obs:
	EMIT_BENCH_OBS=1 $(GO) test -run TestEmitBenchObs -v .

# The parallel-build gate: workers=N must beat workers=1 by >= 1.5x on the
# 4k-vertex grid (ratio enforced only when GOMAXPROCS >= 4; narrower
# machines record the measurement with a "skipped": "single-core" marker)
# in .bench_build/BENCH_parallel.json.
bench-parallel:
	BENCH_PARALLEL_GATE=1 $(GO) test -run TestParallelBuildSpeedupGate -v .

# The query-serving gate: Flat.Query must beat the reference label walk
# (the pointer engine internal/oracle's tests keep) by >= 1.5x ns/op on
# the 4k-vertex grid and take 0 allocs/op; the measured numbers land in
# .bench_build/BENCH_query.json.
bench-query:
	BENCH_QUERY_GATE=1 $(GO) test -run TestQueryServingGate -v ./internal/oracle/

# The path-reporting gate: with a warm reused caller buffer Flat.QueryPath
# must allocate nothing and cost at most 2x a flat distance query, both
# timed over the same 256-pair blocks, one after the other. The measured
# numbers land in .bench_build/BENCH_path.json.
bench-path:
	BENCH_PATH_GATE=1 $(GO) test -run TestPathServingGate -v .

# The serving gate: bench/run.sh builds pathsepd, serves each workload's
# image from it and drives it over loopback, 4 s per workload: reload
# (GET /query beside image swaps) and bulk (binary batches). A run exits
# non-zero on a transport error, a non-2xx reply, a wrong answer or a
# wrong reload generation. Its rows land in
# .bench_build/BENCH_serve-<workload>.txt, and the gate also fails when a
# p99_us row is missing (fewer than 1,000 samples) or reads 250 ms or
# more, or when the reload rows have no reload_p50_ms (fewer than 20
# reloads).
bench-serve:
	@set -e; for w in reload bulk; do \
		out=.bench_build/BENCH_serve-$$w.txt; \
		echo "bash bench/run.sh --workload $$w --seed 1 --seconds 4 --trace 0 --out $$out"; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 4 --trace 0 --out $$out; \
		awk -v w=$$w -v f=$$out ' \
		  $$2 == "p99_us" { n++; if ($$3 + 0 >= 250000) { printf "bench-serve: %s: p99_us %s us, want < 250000\n", w, $$3; bad = 1 } } \
		  $$2 == "reload_p50_ms" { r = 1 } \
		  END { if (!n) { printf "bench-serve: %s: no p99_us row in %s (fewer than 1,000 samples)\n", w, f; bad = 1 } \
		    if (w == "reload" && !r) { printf "bench-serve: reload: no reload_p50_ms row in %s (fewer than 20 reloads)\n", f; bad = 1 } \
		    exit bad ? 1 : 0 }' $$out; \
	done

# bench/ is its own Go module (it replaces pathsep with ../), so the root
# ./... never compiles it; this runs its tests against the tree, catching
# an API change that would break bench/run.sh.
bench-unit:
	$(GO) -C bench test ./...

# Go lines added and removed against BASE (default HEAD), per directory
# (two levels under internal/ and cmd/) and in total, split into code,
# comment and blank; a comment line is one whose first token is //, and
# the repo has no /* */ blocks. Non-test files and _test.go files get a
# table each; vendor/ and testdata/ are skipped. The working tree is
# compared, so uncommitted edits count, and untracked files count as
# added.
BASE ?= HEAD
LOC_PATHS := '*.go' ':(exclude)vendor/**' ':(exclude)**/testdata/**'

loc:
	@{ git diff -U0 --no-color --no-renames $(BASE) -- $(LOC_PATHS); \
	  git ls-files -o --exclude-standard -- $(LOC_PATHS) | while read -r f; do \
	    printf 'diff --git a/%s b/%s\n+++ b/%s\n@@\n' "$$f" "$$f" "$$f"; sed 's/^/+/' "$$f"; \
	  done; } | awk ' \
	  /^diff --git / { hdr = 1; next } \
	  hdr && /^(---|\+\+\+) [ab]\// { f = substr($$0, 7); x = f ~ /_test\.go$$/ ? "test" : "non-test"; next } \
	  /^@@/ { hdr = 0; next } \
	  hdr || !/^[-+]/ { next } \
	  { t = substr($$0, 2); sub(/^[ \t]+/, "", t); \
	    k = t == "" ? 3 : (t ~ /^\/\// ? 2 : 1); \
	    n = split(f, p, "/"); d = n == 1 ? "." : ((p[1] == "internal" || p[1] == "cmd") && n > 2 ? p[1] "/" p[2] : p[1]); \
	    s = substr($$0, 1, 1) == "+" ? 0 : 3; c[x, d, s + k]++; c[x, "total", s + k]++; dirs[x, d] = 1 } \
	  function row(x, d, i) { \
	    for (i = 1; i <= 6; i++) c[x, d, i] += 0; \
	    return sprintf("%-26s %7d %7d %7d %7d %7d %7d %7d %7d %7d", d, c[x, d, 1], c[x, d, 2], c[x, d, 3], c[x, d, 4], c[x, d, 5], c[x, d, 6], \
	      c[x, d, 1] - c[x, d, 4], c[x, d, 2] - c[x, d, 5], c[x, d, 1] + c[x, d, 2] + c[x, d, 3] - c[x, d, 4] - c[x, d, 5] - c[x, d, 6]) } \
	  function table(x, k, q) { \
	    print x " Go lines, working tree against $(BASE):"; \
	    printf "%-26s %7s %7s %7s %7s %7s %7s %7s %7s %7s\n", "path", "+code", "+comm", "+blank", \
	      "-code", "-comm", "-blank", "net cd", "net cm", "net"; \
	    fflush(); for (k in dirs) { split(k, q, SUBSEP); if (q[1] == x) print row(x, q[2]) | "sort" } \
	    close("sort"); print row(x, "total") } \
	  END { table("non-test"); print ""; table("test") }'
