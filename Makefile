.PHONY: build test loc faults crash fuzz chaos shrink tamper federation overload same pipebench pipebench-trace ab bench bench-quick bench-coverage bench-wal bench-governor bench-requests

build:
	dune build

# Line counts of lib/'s .ml and .mli files, and the optional arguments
# (`?name:`) and `val` declarations its .mli files declare: the figures
# CHANGES.md entries report for each change.  `make loc BASE=<rev>` also
# prints them at that revision (read with git show, nothing checked out)
# and the difference from the working tree.
OPTIONALS = grep -o '?[a-z_0-9]*:' | wc -l
VALS = grep -c '^ *val '
loc:
	@printf 'lib .ml  %s\n' "$$(find lib -name '*.ml' -exec cat {} + | wc -l)"
	@printf 'lib .mli %s\n' "$$(find lib -name '*.mli' -exec cat {} + | wc -l)"
	@printf 'lib .mli optional arguments %s\n' "$$(find lib -name '*.mli' -exec cat {} + | $(OPTIONALS))"
	@printf 'lib .mli val declarations %s\n' "$$(find lib -name '*.mli' -exec cat {} + | $(VALS))"
	@if [ -n "$(BASE)" ]; then \
	  git rev-parse -q --verify "$(BASE)^{commit}" > /dev/null \
	    || { echo "make loc: $(BASE) is not a revision" >&2; exit 1; }; \
	  base_files () { git ls-tree -r --name-only "$(BASE)" -- lib | grep "\.$$1\$$" \
	    | while read -r f; do git show "$(BASE):$$f"; done; }; \
	  for ext in ml mli; do \
	    now=$$(find lib -name "*.$$ext" -exec cat {} + | wc -l); \
	    base=$$(base_files $$ext | wc -l); \
	    printf 'lib .%-3s %s at %s, %+d\n' "$$ext" "$$base" "$(BASE)" "$$((now - base))"; \
	  done; \
	  now=$$(find lib -name '*.mli' -exec cat {} + | $(OPTIONALS)); \
	  base=$$(base_files mli | $(OPTIONALS)); \
	  printf 'lib .mli optional arguments %s at %s, %+d\n' "$$base" "$(BASE)" "$$((now - base))"; \
	  now=$$(find lib -name '*.mli' -exec cat {} + | $(VALS)); \
	  base=$$(base_files mli | $(VALS)); \
	  printf 'lib .mli val declarations %s at %s, %+d\n' "$$base" "$(BASE)" "$$((now - base))"; \
	fi

test:
	dune build && dune runtest

# Fault-matrix suite: deterministic fault injection across the 3 fixed
# seeds baked into test/test_faults.ml (101, 202, 303) — accounting
# invariant, breaker transitions, and the convergence oracle.
faults:
	dune build && dune exec test/test_faults.exe

# Crash-point matrix: every Durable.Device crash point x the 3 fixed
# seeds baked into test/test_durable.ml (11, 22, 33) — verified-prefix
# recovery, WAL/snapshot round-trips, and the QCheck oracle parity suite.
crash:
	dune build && dune exec test/test_durable.exe

# SQL fuzzing sweep: 10 seeds x 2000 statements against the resource
# governor — no untyped exception may escape the engine, and budgeted
# runs that complete must match ungoverned runs bitwise.  A smaller
# 3-seed regression lives in dune runtest (test/test_fuzz.ml).
fuzz:
	dune build && dune exec bench/fuzz.exe

# Whole-system chaos sweep: 20 seeds x 400-step composed fault schedules
# (crashes, outages, corruption, budget trips) checked against the pure
# model oracle's ten invariants.  A smaller 3-seed regression lives in
# dune runtest (test/test_chaos.ml); one schedule replays with
# `prima chaos --seed N --steps M`.
chaos:
	dune build && dune exec bench/chaos_sweep.exe

# E17 delta-debugging sweep: harvest >= 20 failing 400-step schedules
# (cycling the harness's injected defects across seeds) and shrink each
# with ddmin; gates on <= 40 actions per minimal repro, byte-identical
# determinism across two shrinks, and faithfulness to the original
# invariant.  Refreshes BENCH_shrink.json and drops the smallest repro
# under _chaos/ (replay with `prima chaos --replay FILE`).
shrink:
	dune build && dune exec bench/shrink_sweep.exe

# Tamper-evidence sweep: the same 20 seeds x 400-step schedules graded
# on invariant 6 alone — every seeded in-place mutation of stable media
# caught by the next recovery at its exact offset, no crash misread as
# tampering, and every final trail verifying clean.  Offline check of a
# single WAL: `prima verify --wal F [--snapshot F]`.
tamper:
	dune build && dune exec bench/tamper_sweep.exe

# Federation durability sweep: a (sites x entries) grid over the per-site
# durable federation — write-ahead-logged ingest and consolidation
# throughput, plus a hard crash-recovery gate (power-cut one site's WAL
# per point; every synced entry must recover and consolidation must
# reconverge).  Refreshes BENCH_federation.json and saves the largest
# point's per-site WALs under _build/federation-wals/ for
# `prima verify --wal _build/federation-wals`.
federation:
	dune build && dune exec bench/federation_sweep.exe

# E18 overload-storm admission sweep: 10:1 hot-tenant storms arbitrated
# by deficit-round-robin drains.  Gates: every victim tenant keeps >= 80%
# of its no-storm baseline throughput, every shed batch is all-or-nothing
# with an honest retry hint, invariant 10 holds over 20 seeds x 400-step
# chaos schedules with Overload_storm in the alphabet, and every brownout
# refinement epoch reports Coverage.Lower_bound.  Refreshes
# BENCH_overload.json.
overload:
	dune build && dune exec bench/overload_sweep.exe

# Behaviour check against a revision: `make same BASE=<rev>`.  Builds BASE
# (git archive) and a copy of this working tree in temporary directories
# under $TMPDIR, runs the chaos, tamper, fuzz, overload and shrink sweeps
# (shrink seconds masked), `prima generate` plus two `prima
# federation-health` reports over its trail (with and without budget
# classes), `prima recover` and `prima verify` over the WAL it writes,
# and `prima chaos --replay` of every committed corpus repro in each, and
# fails if any check's output or exit code differs
# (bench/same.py).  The sweeps' BENCH_*.json rewrites land in the
# copies, not here.
same:
	@test -n "$(BASE)" || { echo "usage: make same BASE=<rev>" >&2; exit 2; }
	python3 bench/same.py --base "$(BASE)"

# Pipeline benchmark smoke run: each workload once at seed 1 for 5 s,
# untraced (see pipebench/NOTES.md for the full protocol).  Every run is
# made; the target fails if any of them exits non-zero, i.e. if any
# output check failed.
pipebench:
	@status=0; \
	for w in monitor bulk clinic; do \
	  python3 pipebench/run.py --workload $$w --seed 1 --seconds 5 --trace 0 || status=1; \
	done; \
	exit $$status

# Traced pipeline run: each workload once at seed 1 for 5 s with the
# stage-by-stage replay on.  Every black-box refine and coverage_qualified
# is checked against the reference functions it composes (Filter, the SQL
# GROUP BY, Coverage over the rebuilt P_AL), so this exercises the fused
# Algorithm 3 + 5 path and coverage over codes on the benchmark's own
# workloads.  Every run is made; the target fails if any of them exits
# non-zero.
pipebench-trace:
	@status=0; \
	for w in monitor bulk clinic; do \
	  python3 pipebench/run.py --workload $$w --seed 1 --seconds 5 --trace 1 || status=1; \
	done; \
	exit $$status

# Parent/change comparison on one pipeline workload:
# `make ab BASE=<rev> WORKLOAD=monitor [PAIRS=10] [SEEDS=1,2,7919]`.
# git-archives BASE into a temporary directory under $TMPDIR, alternates its
# runs with this working tree's, each BENCHMARK.json's run_seconds long,
# prints each gated metric's medians and quartiles, the pairs the change
# won, the parent's quartile spread and a verdict (gain, worse, unresolved
# or same), and fails if any run is not correct (bench/ab.py).
PAIRS ?= 10
SEEDS ?= 1
ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make ab BASE=<rev> WORKLOAD=<w> PAIRS=<n>" >&2; exit 2; }
	python3 bench/ab.py --base "$(BASE)" --workload "$(WORKLOAD)" --pairs "$(PAIRS)" \
	  --seeds "$(SEEDS)"

# All experiments + Bechamel microbenchmarks.
bench:
	dune exec bench/main.exe

# Experiments only (skips Bechamel); regenerates BENCH_coverage.json.
bench-quick:
	dune exec bench/main.exe -- quick

# Only the coverage-scaling sweep; fastest way to refresh BENCH_coverage.json.
bench-coverage:
	dune exec bench/main.exe -- coverage

# Only the WAL replay-throughput sweep; fastest way to refresh BENCH_wal.json.
bench-wal:
	dune exec bench/main.exe -- wal

# Only the query-governance overhead sweep (E13); refreshes BENCH_governor.json.
bench-governor:
	dune exec bench/main.exe -- governor

# Only the per-request cost sweep (E19): coverage and refine medians at
# 12k, 120k and 1M base entries beside Trail_reference's walks; refreshes
# BENCH_requests.json.  Not part of bench or bench-quick: it takes about a
# minute and peaks near a gigabyte of memory at the 1M point.
bench-requests:
	dune exec bench/main.exe -- requests
