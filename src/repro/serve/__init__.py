"""Resilient query-serving layer (``repro serve``) plus its overload
chaos harness.

Submodules:

* :mod:`repro.serve.app` — the asyncio HTTP server (`ServeApp`) with
  admission control, per-endpoint circuit breakers, deadline budgets,
  and SIGTERM graceful drain;
* :mod:`repro.serve.queries` — deadline-propagated read paths over a
  pool of read-only stores (`QueryService`);
* :mod:`repro.serve.resilience` — the overload primitives
  (`TokenBucket`, `AdmissionController`, `CircuitBreaker`, `ReadPool`);
* :mod:`repro.serve.loadgen` — seeded open-loop workload generator and
  latency/outcome reporting for the chaos tests
  (``tests/test_serve_chaos.py``).
"""

from .app import ServeApp
from .loadgen import LoadReport, RqsWorkload, run_workload
from .queries import (
    BadRequest,
    DeadlineExceeded,
    NotFound,
    QueryService,
    StoreError,
)
from .resilience import (
    Admission,
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    PoolTimeout,
    ReadPool,
    TokenBucket,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "BadRequest",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineExceeded",
    "LoadReport",
    "NotFound",
    "PoolTimeout",
    "QueryService",
    "ReadPool",
    "RqsWorkload",
    "ServeApp",
    "StoreError",
    "TokenBucket",
    "run_workload",
]
