PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test chaos slow bench bench-smoke perf-smoke all

# Tier-1: the fast suite (the chaos storm matrix is deselected by the
# `-m 'not chaos'` default in pyproject.toml).
test:
	$(PYTHON) -m pytest -x -q

# Full fault-injection matrix: seeded storms, per-kind pure storms,
# total blackout, hostile-content storms. A later -m overrides the
# pyproject default; CI passes PYTEST_ARGS="--timeout=300".
chaos:
	$(PYTHON) -m pytest -q -m chaos $(PYTEST_ARGS)

# Paper-scale clustering property/equivalence matrix (tier-1 runs a
# reduced version; nightly runs this full one).
slow:
	$(PYTHON) -m pytest -q -m slow $(PYTEST_ARGS)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The legacy spot checks: 1-vs-2-worker pool scaling, telemetry
# overhead and serve under overload (the committed BENCH_workers.json
# comes from the full 100k-IP 1/2/4/8-worker run, BENCH_telemetry.json
# from the full 50k-IP x5 run, and BENCH_serve.json from the full
# 0.5x/2x/10x offered-rate run documented in each benchmark module).
bench-smoke:
	$(PYTHON) benchmarks/bench_workers_scale.py --ips 4096 \
		--latency 0.02 --concurrency 24 --shard-size 256 \
		--workers 1 2 --out /tmp/BENCH_workers_smoke.json
	$(PYTHON) benchmarks/bench_telemetry_overhead.py --ips 8192 \
		--repeats 2 --out /tmp/BENCH_telemetry_smoke.json
	$(PYTHON) benchmarks/bench_serve.py --ips 256 --days 4 \
		--rate 50 --duration 1.5 --multiples 0.5 4.0 \
		--out /tmp/BENCH_serve_smoke.json

# The platform benchmark's own checks (benchmarks/perf, BENCHMARK.json):
# its unit tests, then every workload at smoke scale, plain and traced,
# each verifying its outputs. Correctness of the harness only — nothing
# here gates on a timing.
perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q
	$(PYTHON) benchmarks/perf/run.py --smoke --traced

all: test chaos
