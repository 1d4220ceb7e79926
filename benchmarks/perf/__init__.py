"""The platform's one performance benchmark (see README.md here and
BENCHMARK.json at the repo root).  Run through ``run.py``."""
