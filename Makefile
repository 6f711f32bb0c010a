# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-quick fuzz-smoke perfbench-smoke ci examples doc clean

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

# Bounded mutation-fuzz pass (fixed seed): >= 10k corrupted variants
# of valid files through the five text parsers (bench, cell library,
# patterns, partitions, campaign specs) plus the server frame
# decoder, the ATPG facade and the JSONL store; every outcome must be
# Ok/Error -- no exception, no descriptor leak, and an Error of a
# line-oriented format names one of the input's lines or none.
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
# clients is a test_server case, the diagnosis accuracy and ATPG
# test-set gates on the ISCAS85 grid are test_diagnose and
# test_testset cases), the examples (the executable documentation of
# the Result-typed facades), mutation fuzz, benchmark-harness
# self-check.
# Every gate fails through a non-zero exit status; none gates on a
# throughput or latency floor.
ci: build test examples fuzz-smoke perfbench-smoke

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
