# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-quick diagnose-smoke testset-smoke fuzz-smoke perfbench-smoke ci examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every table, figure and ablation (several minutes).
bench:
	dune exec bench/main.exe

# Table 1 on a small stand-in only.
bench-quick:
	dune exec bench/main.exe -- quick

# Diagnosis gate: signature-based localization across the ISCAS85
# stand-ins x {2,4,8,16} uniform modules.  Noiseless exact matching
# must put the true defect in its top ambiguity class on every trial,
# and with 2% measurement noise the aggregate top-3 module accuracy
# must stay >= 0.9 (the experiment exits 1 otherwise); accuracy and
# diagnosability vs module count land in BENCH_diagnose.json (seconds).
diagnose-smoke:
	dune exec bench/main.exe -- diagnose
	@echo "diagnose-smoke: exact localization, noisy top-k >= 0.9 - PASS"

# ATPG closed-loop gate: PODEM top-up coverage must be >= the
# random-only baseline on the whole ISCAS85 grid, every minimization
# strategy must preserve the full set's coverage, the minimized set
# must be strictly smaller on >= 3 of the 4 circuits with refined <=
# greedy everywhere, and a re-run under the fixed seed must reproduce
# the set exactly (the experiment exits 1 otherwise); vectors
# before/after, per-strategy runtimes and the c4/test-time delta land in
# BENCH_testset.json (a couple of minutes).
testset-smoke:
	dune exec bench/main.exe -- testset
	@echo "testset-smoke: coverage kept, sets shrink, deterministic - PASS"

# Bounded mutation-fuzz pass (fixed seed): >= 10k corrupted variants
# of valid files through all five parsers plus the JSONL store; every
# outcome must be Ok/Error -- no exception, no descriptor leak.
# fuzz_main exits 1 otherwise, and the target gates on that exit
# status (seconds).
fuzz-smoke:
	dune exec fuzz/fuzz_main.exe -- --iterations 1500 --seed 62498
	@echo "fuzz-smoke: no crashes, no fd leaks - PASS"

# The benchmark harness's check of itself: BENCHMARK.json against its
# limits, then every workload at reduced size, untraced and traced, as
# a child process, with each result line, record and trace file
# checked; run.sh exits non-zero when any check fails, and the target gates on
# that exit status (seconds).
perfbench-smoke:
	bash perfbench/run.sh smoke
	@echo "perfbench-smoke: spec, records and traces of every workload - PASS"

# What the CI check runs: build, tests (the service under 64 concurrent
# clients is a test_server case), the examples (the executable
# documentation of the Result-typed facades), diagnosis accuracy gate,
# ATPG test-set gate, mutation fuzz, benchmark-harness self-check.
# Every gate fails through a non-zero exit status; none gates on a
# throughput or latency floor.
ci: build test examples diagnose-smoke testset-smoke fuzz-smoke perfbench-smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/iscas_c17.exe
	dune exec examples/array_shape.exe
	dune exec examples/defect_coverage.exe
	dune exec examples/drive_selection.exe
	dune exec examples/testability.exe

doc:
	dune build @doc

clean:
	dune clean
