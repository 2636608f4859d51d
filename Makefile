PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-ledger bench-compare bench-fig2 bench-fig4 bench-stream bench-load coverage-obs trace-demo test-resilience test-concurrency test-jobs test-xml test-server chaos-demo jobs-demo

test: test-jobs test-xml
	$(PYTHON) -m pytest -x -q
	BENCH_LOAD_SMOKE=1 PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest benchmarks/test_bench_load.py -q
	BENCH_FIG2_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_fig2_hotpath.py -q
	BENCH_FIG4_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_fig4_cache.py -q

# Event-loop server suites: c=100 load/soak with keep-alive reuse and
# admission-control degradation, slow-loris reaping, client in-stream
# deadlines and chunked-decode edge cases.  Runs once with the default
# seed, then the load suite again under a fresh LOAD_SEED so workload
# interleavings vary run to run (set LOAD_SEED to replay a failure).
test-server:
	PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest \
		tests/transport/test_server_load.py \
		tests/transport/test_server_slowloris.py \
		tests/transport/test_stream_read_deadline.py \
		tests/transport/test_lean_response_chunked.py -q
	LOAD_SEED=$$($(PYTHON) -c 'import random; print(random.randrange(10**6))') \
		PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest tests/transport/test_server_load.py -q

# Throughput + tail latency with c=100 / 1k / 10k open keep-alive
# connections; gates on zero lost responses, parseable sheds and a
# fast /healthz under saturation.  The c=10k tier serves from a
# subprocess (`python -m repro serve`) for file-descriptor headroom.
bench-load:
	PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest benchmarks/test_bench_load.py -q -s

# Durable-jobs suites: state machine, concurrency races, wire formats,
# end-to-end async factories, and the crash-recovery property suite —
# once with the committed fixed seed, then again under a fresh random
# seed.  PYTHONFAULTHANDLER dumps thread stacks if a race deadlocks.
test-jobs:
	PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest tests/jobs -q
	JOBS_SEED=$$($(PYTHON) -c 'import random; print(random.randrange(10**6))') \
		PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest tests/jobs/test_crash_recovery.py -q

# XPath/XQuery suites, including the compiled-vs-interpreter and
# ElementTree differentials: once with hypothesis pinned to seed 0, then
# again under a fresh seed so the generated documents and expressions
# vary run to run (a failure prints the seed to replay it with).
test-xml:
	$(PYTHON) -m pytest tests/xpath tests/xmldb tests/daix -q --hypothesis-seed=0
	$(PYTHON) -m pytest tests/xpath tests/xmldb tests/daix -q \
		--hypothesis-seed=$$($(PYTHON) -c 'import random; print(random.randrange(10**6))')

# Submit → crash → restart → recover → fetch, narrated on stdout.
jobs-demo:
	$(PYTHON) -m repro jobs

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The committed trajectory (ROADMAP item 1): `make bench-ledger N=<pr>`
# runs the whole dais-bench at seed 1 into benchmarks/ledger/BENCH_<pr>.json;
# `make bench-compare` diffs the two newest ledger files and fails on a
# `worse` verdict.  Measure a parent commit from a clone of it, back to
# back with the change on the same host.
bench-ledger:
	$(if $(N),,$(error usage: make bench-ledger N=<pr number>))
	$(PYTHON) -m bench.run --seed 1 --out benchmarks/ledger/BENCH_$(N).json

bench-compare:
	$(PYTHON) -m bench.compare $$(ls benchmarks/ledger/BENCH_*.json | sort -V | tail -2)

# Compiled hot-path gate.  There is one parser, one serializer and one
# emitter in src/; the "before" legs come from oracles, not from a mode
# of the program: the shipped parser must read the 1000-row reply >= 3x
# faster than the classic recursive parser kept under tests/ (and build
# the same tree), templated to_bytes() must equal generic tree
# serialization byte for byte, and eager (the same rows asked sorted: a
# pipeline breaker, emitted from memory) must equal streamed delivery.
# The plan-cache invalidation regressions and the parser differential
# ride along — the differential once on its fixed seed, then again on a
# fresh one (a failure prints the seed and the document to replay).
bench-fig2:
	$(PYTHON) -m pytest benchmarks/test_fig2_hotpath.py \
		tests/relational/test_plan_cache.py \
		tests/xmlutil/test_parser_differential.py -q -s
	PARSER_DIFF_SEED=$$($(PYTHON) -c 'import random; print(random.randrange(10**6))') \
		$(PYTHON) -m pytest tests/xmlutil/test_parser_differential.py -q

# Caching + wire-efficiency gate (fig-4 property workload), over real
# HTTP against one server with nothing switched off: a client that
# negotiates gzip and reads the cached property document must move
# >= 5x fewer wire bytes per fetch than a client that offers no gzip,
# at a p50 no worse than that client sees when DDL has just made the
# cached document stale (render + plain bytes), and an identical
# SQLExecuteFactory must be answered from the shared-result cache no
# slower than a fresh evaluation.  Stale-read regression tests and the
# cache primitive's own suite ride along.
bench-fig4:
	$(PYTHON) -m pytest benchmarks/test_fig4_cache.py \
		tests/test_versioned_lru.py \
		tests/core/test_propdoc_cache.py tests/core/test_propdoc_hits.py \
		tests/dair/test_result_reuse.py -q -s

# Streamed-delivery memory/throughput gate: streamed peak memory at
# 100k rows must stay under 2x the 1k-row baseline, and streamed
# throughput at 10k rows must be no worse than the materialized design
# it replaced (not a mode of the service: the benchmark rebuilds it from
# the oracle renderer under tests/).
bench-stream:
	$(PYTHON) -m pytest benchmarks/test_fig5_stream.py -q -s

# Figure 3 factory chain over real HTTP with tracing on; prints the
# resulting span tree and lifecycle journal.
trace-demo:
	$(PYTHON) -m repro trace --demo

# Stdlib-trace coverage gate: every module under src/repro/obs/ must
# stay at >= 90% executable-line coverage from the tests/obs/ suite.
coverage-obs:
	$(PYTHON) tools/obs_coverage.py

# Fault-injection + resilience suites: once with the committed fixed
# seeds, then the chaos scenarios again under a fresh random seed.
test-resilience:
	$(PYTHON) -m pytest tests/faultinject tests/resilience -q
	CHAOS_SEED=$$($(PYTHON) -c 'import random; print(random.randrange(10**6))') \
		$(PYTHON) -m pytest tests/resilience/test_chaos_scenarios.py -q

# Race regressions and pool behaviour under the threaded HTTP binding.
# PYTHONFAULTHANDLER dumps all thread stacks if a deadlock ever hangs
# a run, instead of timing out silently.
test-concurrency:
	PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest \
		tests/integration/test_race_regressions.py \
		tests/transport/test_connection_pool.py \
		tests/transport/test_http_concurrency.py -q

# Seeded chaos runs against resilient clients in virtual time; prints
# the outcome tally and one retried call as a connected trace.
chaos-demo:
	$(PYTHON) -m repro chaos --seed 7 --iterations 40
