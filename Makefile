# Convenience targets for the bsolo-go reproduction.

GO ?= go

.PHONY: all build test race fuzz bench ablations bench-bounds bench-engine bench-portfolio bench-cuts bench-parse bench-ls bench-wbo bench-snapshot bench-baseline bench-compare escape-check race-pkgs table examples clean ci vet loc

all: build test

# go vet plus the formatting gate: every Go file must be gofmt-clean.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# What CI runs (.github/workflows/ci.yml runs the same steps, fuzzing
# longer): vet and the gofmt gate + build + full test suite, the non-test
# line count (loc, which the ROADMAP's simplicity criteria are checked
# against), the tests of the tablebench module (its own go.mod, so the root
# suite never reaches them), the race detector on the concurrency-sensitive packages
# (race-pkgs), the escape-analysis guard, the bench-regression gate against
# the committed baseline, then a single-iteration smoke pass over the
# bound-pipeline, engine, portfolio-sharing, cut-separation and reader
# benchmarks, one pass of the ablations, small bench snapshots and the
# differential fuzzing matrix.
ci: vet build test loc
	cd tablebench && $(GO) test ./...
	$(MAKE) race-pkgs
	$(MAKE) escape-check
	$(MAKE) bench-compare
	$(MAKE) bench-bounds BENCHTIME=1x
	$(MAKE) bench-engine BENCHTIME=1x
	$(MAKE) bench-portfolio BENCHTIME=1x
	$(MAKE) bench-cuts BENCHTIME=1x
	$(MAKE) bench-parse BENCHTIME=1x
	$(MAKE) ablations
	$(MAKE) bench-snapshot BENCH_FAMILY=synth BENCH_N=2 BENCH_TIME=3s
	$(MAKE) bench-ls BENCH_LS_N=2 BENCH_LS_TIME=2s BENCH_LS_NODES=20 BENCH_LS_OUT=/tmp/bench_ls_smoke.json
	$(MAKE) bench-wbo BENCH_WBO_N=2 BENCH_WBO_TIME=2s BENCH_WBO_VARS=12 BENCH_WBO_OUT=/tmp/bench_wbo_smoke.json
	$(MAKE) fuzz FUZZTIME=10s PBFUZZ_N=500

# The race detector on the concurrency-sensitive packages: the engine
# interrupt hook, solver cancellation, portfolio racing + clause sharing,
# local search, fault injection, the incremental Reducer's watcher protocol,
# the warm-start LP state, cut pools, the fuzz harness, the live metrics
# registry, presolve, the core-guided and wcnf paths, and bsolo's own runs
# (signal handling, the live endpoint, every mode's race). The one list both
# `make ci` and CI use.
RACE_PKGS := ./cmd/bsolo ./internal/engine ./internal/core ./internal/portfolio ./internal/share ./internal/ls ./internal/fault ./internal/bounds ./internal/lp ./internal/cuts ./internal/fuzz ./internal/obs ./internal/preprocess ./internal/wbo ./internal/wcnf
race-pkgs:
	$(GO) test -race $(RACE_PKGS)

build:
	$(GO) build ./...

# Non-test Go lines outside tablebench/ (its own module): the count the
# ROADMAP's "net-negative" criteria are checked against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './tablebench/*' ! -path './.*' -print0 | xargs -0 cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Differential fuzzing (see DESIGN.md section 10): replay the committed
# reproducer corpus, sweep adversarial instances through every solver
# configuration under the invariant auditor via cmd/pbfuzz, then short
# coverage-guided sessions on the differential harness and the OPB parser.
# Override FUZZTIME / PBFUZZ_N for longer hunts.
FUZZTIME ?= 30s
PBFUZZ_N ?= 2000
fuzz:
	$(GO) test -run 'TestFuzzCorpus|TestAdversarialDifferential|TestWBODifferential' -count=1 ./internal/fuzz
	$(GO) test -run 'TestWCNFCorpus' -count=1 ./internal/wcnf
	$(GO) run ./cmd/pbfuzz -n $(PBFUZZ_N) -seed 1
	$(GO) test -fuzz=FuzzDifferential -fuzztime=$(FUZZTIME) ./internal/fuzz
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/opb
	$(GO) test -fuzz=FuzzWCNFParse -fuzztime=$(FUZZTIME) ./internal/wcnf

# Table 1 benches + ablations A1-A8 (see DESIGN.md section 4).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' .

# The ablations A1-A8 alone, one pass (harness.Ablations over the bench-scale
# grout, synth and mcnc rows; about 9 s): solved/run and decisions/inst per
# variant.
ablations:
	$(GO) test -run='^$$' -bench=Ablation -benchtime=1x .

# Bound-pipeline microbenchmarks: from-scratch Extract vs the incremental
# Reducer, the LPR node-loop with cold vs warm-started LP solves, and the
# root path of default bsolo-LPR over the 40 Table 1 rows (BenchmarkRootClose:
# most rows end at the root, so its ns/op and allocs/op are what one root
# node costs, set-up included).
# Override BENCHTIME (e.g. BENCHTIME=2s) for stable comparative numbers.
BENCHTIME ?= 2s
bench-bounds:
	$(GO) test -bench='BenchmarkExtract|BenchmarkReducerIncremental' -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./internal/bounds
	$(GO) test -bench='BenchmarkLPRNodeLoop' -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./internal/lp
	$(GO) test -bench='BenchmarkRootClose' -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./internal/core

# Engine-core node-throughput microbenchmarks: one full propagation wave
# (decide, CSR counter propagation, batched delta flush, backtrack) through
# the struct-of-arrays engine vs the faithful pre-refactor pointer-per-
# constraint replica kept in bench_test.go. The layout refactor landed at
# ~1.6x on the wave; the workload is cache-bound and noisy, so compare
# medians across repetitions (BENCHCOUNT=6), never single runs.
BENCHCOUNT ?= 1
bench-engine:
	$(GO) test -bench='BenchmarkPropagateWave' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' ./internal/engine

# Escape-analysis guard for the engine hot path: the per-literal helpers on
# the propagation wave (CSR row lookup, transition marking, literal value
# lookup, heap re-insert on backtrack) must stay inlinable, and the batched
# delta flush must stay allocation-free. The obs alloc-regression tests pin
# the complementary runtime guarantee (0 allocs/op across a full wave); this
# catches the same regressions at compile time with a file:line pointer. The
# lp pivot helpers (pivot-row scaling, the sparse elimination every simplex
# pivot runs, and the column walk of its ratio test) and the row-pattern
# helpers (pattern membership, the active-column marks, the crash's key
# table) must stay inlinable into their loops;
# the lp and bounds allocation pins check that a warm re-solve allocates only
# its result.
escape-check:
	@out=$$($(GO) build -gcflags='-m' ./internal/engine 2>&1); \
	for fn in '(*Engine).csr' '(*Engine).noteTransition' '(*Engine).LitValue' '(*varHeap).pushIfAbsent'; do \
		echo "$$out" | grep -qF "can inline $$fn" || { echo "escape-check: $$fn is no longer inlinable"; exit 1; }; \
	done; \
	if echo "$$out" | grep 'notify\.go' | grep -q 'escapes to heap'; then \
		echo "escape-check: allocation escaped onto the batched-delta path:"; \
		echo "$$out" | grep 'notify\.go' | grep 'escapes to heap'; exit 1; \
	fi; \
	cutsout=$$($(GO) build -gcflags='-m' ./internal/cuts 2>&1); \
	for fn in '(*Pool).Probe' '(*Pool).Len'; do \
		echo "$$cutsout" | grep -qF "can inline $$fn" || { echo "escape-check: $$fn is no longer inlinable"; exit 1; }; \
	done; \
	if echo "$$cutsout" | grep 'probe\.go' | grep -q 'escapes to heap'; then \
		echo "escape-check: allocation escaped onto the per-node separation fast path:"; \
		echo "$$cutsout" | grep 'probe\.go' | grep 'escapes to heap'; exit 1; \
	fi; \
	lsout=$$($(GO) build -gcflags='-m' ./internal/ls 2>&1); \
	for fn in 'violation' 'objViolation' '(*solver).removeUnsat' '(*solver).bumpWeights'; do \
		echo "$$lsout" | grep -qF "can inline $$fn" || { echo "escape-check: ls $$fn is no longer inlinable"; exit 1; }; \
	done; \
	lpout=$$($(GO) build -gcflags='-m' ./internal/lp 2>&1); \
	for fn in '(*simplex).scalePivotRow' '(*simplex).eliminate' '(*simplex).gatherCol' '(*simplex).activeCols' '(*simplex).note' '(*simplex).markActive' '(*keyIndex).put' '(*keyIndex).get'; do \
		echo "$$lpout" | grep -qF "can inline $$fn" || { echo "escape-check: lp $$fn is no longer inlinable"; exit 1; }; \
	done; \
	echo "escape-check: hot-path inlining + alloc-free delta flush + cut-probe + ls flip-loop + lp pivot and pattern helpers OK"

# Cooperative-portfolio benchmarks: every member proving the optimum with and
# without the sharing board (total conflicts/decisions across members), the
# end-to-end race, and the per-node board hot path. Override BENCHTIME for
# stable comparative numbers.
bench-portfolio:
	$(GO) test -bench='BenchmarkPortfolioSharedVsIsolated|BenchmarkPortfolioRace|BenchmarkBoardHotPath' -benchmem -benchtime=$(BENCHTIME) -run='^$$' ./internal/portfolio

# Cut-separation payoff on the synthetic LPR-gap family: share of the root
# integrality gap closed by the separation fixpoint, and the median
# conflicts/nodes to the proved optimum with cuts on vs off. The workload is
# search-order sensitive, so compare medians across repetitions
# (BENCHCOUNT=6), never single runs.
bench-cuts:
	$(GO) test -bench='BenchmarkCutsSynth' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' ./internal/harness

# Reader throughput: one pass over the 40 Table 1 rows as OPB text and over
# generated weighted rows as soft OPB per iteration, reported as MB/s and
# allocs/op.
bench-parse:
	$(GO) test -bench='BenchmarkParse' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' ./internal/opb

# Local-search payoff benchmark (see DESIGN.md section 15): the cooperative
# race plus one LS member (portfolio-ls) vs the B&B-only race (portfolio) on
# the always-feasible sat family, with the exact lpr column as the quality
# reference. The ttfiMs column is the headline — how much earlier the mixed
# portfolio reaches its first feasible incumbent — and the best column bounds
# incumbent quality. Writes a versioned snapshot (BENCH_sat_<date>.json).
BENCH_LS_N ?= 3
BENCH_LS_TIME ?= 5s
BENCH_LS_NODES ?= 0
BENCH_LS_OUT ?= auto
bench-ls:
	$(GO) run ./cmd/pbbench -family sat -n $(BENCH_LS_N) -time $(BENCH_LS_TIME) -sat-nodes $(BENCH_LS_NODES) -solvers lpr,portfolio,portfolio-ls -snapshot $(BENCH_LS_OUT)

# Core-guided payoff benchmark (see DESIGN.md section 16): the cooperative
# race plus the WPM1 core-guided member (portfolio-wbo) vs the B&B-only race
# (portfolio) on generated weighted instances, with the solo core-guided
# column as the pure-strategy reference. Both portfolio columns must prove
# the same optima; the mixed one should match or beat the B&B-only wall
# clock. Writes a versioned snapshot (BENCH_wbo_<date>.json).
BENCH_WBO_N ?= 3
BENCH_WBO_TIME ?= 5s
BENCH_WBO_VARS ?= 0
BENCH_WBO_OUT ?= auto
bench-wbo:
	$(GO) run ./cmd/pbbench -family wbo -n $(BENCH_WBO_N) -time $(BENCH_WBO_TIME) -wbo-vars $(BENCH_WBO_VARS) -solvers core-guided,portfolio,portfolio-wbo -snapshot $(BENCH_WBO_OUT)

# Benchmark-trajectory snapshot: run the bench matrix and write a versioned
# BENCH_<family>_<date>.json document (schema repro.bench/v1). Compare two
# snapshots with `go run ./cmd/pbbench ... -compare old.json` — regressions
# (lost solves, worse incumbents, slowdowns beyond -compare-tol) exit 3.
# Override the knobs for bigger runs: make bench-snapshot BENCH_FAMILY=all
# BENCH_N=10 BENCH_TIME=10s BENCH_OUT=BENCH_all_$(shell date +%F).json
BENCH_FAMILY ?= synth
BENCH_N ?= 2
BENCH_TIME ?= 3s
BENCH_SOLVERS ?= plain,mis,lgr,lpr
BENCH_OUT ?= auto
bench-snapshot:
	$(GO) run ./cmd/pbbench -family $(BENCH_FAMILY) -n $(BENCH_N) -time $(BENCH_TIME) -solvers $(BENCH_SOLVERS) -snapshot $(BENCH_OUT)

# The committed perf baseline (BENCH_synth_baseline.json) and the CI gate
# against it. The baseline uses the deterministic-verdict solver columns only
# (plain rarely finishes within the smoke budget, so its incumbent is noise);
# the generous tolerance plus CompareBench's 50ms floor absorbs CI jitter
# while still catching lost solves and real slowdowns. Regenerate with
# `make bench-baseline` ONLY alongside a change that intentionally moves perf,
# and say so in the commit.
BASELINE := BENCH_synth_baseline.json
BASELINE_TOL ?= 4
bench-baseline:
	$(GO) run ./cmd/pbbench -family synth -n 2 -time 3s -solvers mis,lgr,lpr -snapshot $(BASELINE)

bench-compare:
	$(GO) run ./cmd/pbbench -family synth -n 2 -time 3s -solvers mis,lgr,lpr -compare $(BASELINE) -compare-tol $(BASELINE_TOL)

# Regenerate the paper's Table 1 at reproduction scale (minutes).
table:
	$(GO) run ./cmd/pbbench -all -n 10 -time 10s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mincov
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/comparison
	$(GO) run ./examples/routing

clean:
	$(GO) clean ./...
