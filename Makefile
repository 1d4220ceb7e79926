PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test chaos slow bench perf-smoke deadcode all

# Tier-1: the fast suite (the chaos storm matrix is deselected by the
# `-m 'not chaos'` default in pyproject.toml).
test:
	$(PYTHON) -m pytest -x -q

# Full fault-injection matrix: seeded storms, per-kind pure storms,
# total blackout, hostile-content storms. A later -m overrides the
# pyproject default; CI passes PYTEST_ARGS="--timeout=300".
chaos:
	$(PYTHON) -m pytest -q -m chaos $(PYTEST_ARGS)

# Paper-scale clustering property/equivalence matrix and the 40 000-IP
# scanner-drain campaign equivalence (tier-1 runs reduced versions;
# nightly runs these full ones).
slow:
	$(PYTHON) -m pytest -q -m slow $(PYTEST_ARGS)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The platform benchmark's own checks (benchmarks/perf, BENCHMARK.json):
# its unit tests, then every workload at smoke scale, plain and traced,
# each verifying its outputs. Correctness of the harness only — nothing
# here gates on a timing.
perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q
	$(PYTHON) benchmarks/perf/run.py --smoke --traced

# Every src/ function must be reached by a shipped entry point (CI's
# commands, the examples, the benchmark harness and benches) or carry a
# reason in scripts/deadcode_allow.txt: lists the rest, exit 1 if any.
deadcode:
	$(PYTHON) scripts/deadcode.py

all: test chaos
