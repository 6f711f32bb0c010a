# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-quick campaign-smoke diagnose-smoke testset-smoke fuzz-smoke serve-smoke loadgen-smoke perfbench-smoke ci examples doc clean

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

# Checkpoint/resume check: a tiny campaign run twice against the same
# store.  The first run executes every job on a 2-domain pool; the
# second must find them all on disk and execute nothing (seconds).
# The store lives in a mktemp-derived path (a fixed /tmp name made
# concurrent runs resume from each other's half-written stores) and is
# cleaned up on any exit via trap.
campaign-smoke:
	@store=$$(mktemp /tmp/iddq-campaign-smoke.XXXXXX.jsonl) && \
	trap 'rm -f "$$store"' EXIT INT TERM && \
	rm -f "$$store" && \
	dune exec bin/iddq_synth.exe -- campaign \
	  --circuits C17,C432 --methods evolution,standard --seeds 1,2 \
	  --generations 40 --domains 2 --out "$$store" && \
	dune exec bin/iddq_synth.exe -- campaign \
	  --circuits C17,C432 --methods evolution,standard --seeds 1,2 \
	  --generations 40 --domains 2 --out "$$store" \
	  | grep -q "executed 0, skipped 8"
	@echo "campaign-smoke: resume executed 0 jobs - PASS"

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
# outcome must be Ok/Error -- no exception, no descriptor leak
# (seconds).
fuzz-smoke:
	dune exec fuzz/fuzz_main.exe -- --iterations 1500 --seed 62498 \
	  | grep -q "fuzz-smoke: PASS"
	@echo "fuzz-smoke: no crashes, no fd leaks - PASS"

# Resident-service check: an in-process daemon on a temp socket, a
# scripted client through load -> partition -> partition (asserting a
# session-cache hit via the Metrics counters) -> fault_sim -> campaign
# -> shutdown, plus a second client sending a malformed frame and
# disconnecting mid-frame without disturbing the first; descriptor
# population must be identical before and after (seconds).
serve-smoke:
	dune exec bin/iddq_synth.exe -- serve-smoke \
	  | grep -q "serve-smoke: PASS"
	@echo "serve-smoke: session cache hit, fault isolation, no fd leaks - PASS"

# Event-loop load gate: a self-hosted server driven by 64 concurrent
# synthetic clients (mixed characterize/partition/diagnose/
# campaign-status/metrics stream, 20 requests each).  Every request
# must be answered, none shed (pipeline depth 1 is under the server's
# limit), and throughput must clear a floor conservative enough for
# the single-core container; throughput and p50/p95/p99 latency land
# in BENCH_serve.json (seconds).
loadgen-smoke:
	dune exec bin/iddq_synth.exe -- loadgen \
	  --clients 64 --requests 20 --pipeline 1 --floor 100 \
	  --out BENCH_serve.json \
	  | grep -q "loadgen: PASS"
	@echo "loadgen-smoke: 64 clients, zero failed/shed, floor cleared - PASS"

# The benchmark harness's check of itself: BENCHMARK.json against its
# limits, then every workload at reduced size, untraced and traced, as
# a child process, with each result line, record and trace file
# checked (seconds).
perfbench-smoke:
	bash perfbench/run.sh smoke | grep -q "smoke: PASS"
	@echo "perfbench-smoke: spec, records and traces of every workload - PASS"

# What the CI check runs: build, tests, campaign resume smoke,
# diagnosis accuracy gate, ATPG test-set gate, mutation fuzz,
# resident-service smoke, event-loop load gate, benchmark-harness
# self-check.
ci: build test campaign-smoke diagnose-smoke testset-smoke fuzz-smoke serve-smoke loadgen-smoke perfbench-smoke

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
