"""``repro serve`` — the resilient asyncio HTTP query API.

A dependency-free HTTP/1.1 server on ``asyncio.start_server`` exposing
the WhoWas query interface over a measurement database:

=====================  =================================================
``GET /healthz``       liveness (cheap, never admission-controlled)
``GET /readyz``        readiness: 503 while draining / breakers all open
``GET /rounds``        round summaries (+ in-progress ids)
``GET /rounds/<id>``   one round in detail
``GET /ip/<addr>``     per-IP history (the WhoWas lookup)
``GET /clusters/<id>`` per-round feature aggregates
                       (``?column=template&limit=20``)
=====================  =================================================

Data endpoints accept ``?deadline_ms=N`` (capped at
``ServeConfig.max_deadline``); the budget covers admission waiting, the
reader-pool lease, and the sqlite read itself, so **every request
completes or sheds within its deadline** — the overload contract the
chaos harness (`tests/test_serve_chaos.py`) pins at 10× capacity.

Robustness envelope, in request order:

1. request head parsed under ``header_timeout`` and
   ``max_request_bytes`` (slow-loris bound) — violations get ``408`` /
   ``431`` and the connection closed;
2. drain check — a draining server refuses new data requests with
   ``503`` while finishing in-flight ones;
3. token-bucket admission with a bounded wait queue — shed requests
   get ``429`` plus a jittered, streak-scaled ``Retry-After``;
4. per-endpoint circuit breaker — while the store is sick the endpoint
   fails fast with ``503`` instead of queueing doomed reads;
5. the read itself, deadline-propagated (`serve.queries`).

Every reply is a well-formed HTTP response with ``Connection: close``;
unexpected server-side failures map to ``503`` (breaker-counted), never
a half-written 200 or an unhandled traceback.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..core import telemetry as _telemetry
from ..core.config import ServeConfig
from ..core.store import StoreBackend, open_store
from .queries import BadRequest, DeadlineExceeded, NotFound, QueryService
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    ReadPool,
    TokenBucket,
)

__all__ = ["ServeApp", "DATA_ENDPOINTS"]

#: Endpoint groups with their own breaker + metrics label.
DATA_ENDPOINTS = ("rounds", "round", "ip", "clusters")

#: Listen backlog for the accept socket.
_BACKLOG = 512

_REASONS = {
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    503: "Service Unavailable",
    200: "OK",
}


def _response(
    status: int,
    payload: dict | str,
    *,
    retry_after: int | None = None,
) -> bytes:
    """One complete HTTP response, always framed and always closing."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if retry_after is not None:
        head.append(f"Retry-After: {retry_after}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


class ServeApp:
    """The serving process: listener, envelope, and drain protocol."""

    def __init__(
        self,
        db_path: str,
        config: ServeConfig | None = None,
        *,
        store_factory: Callable[[], StoreBackend] | None = None,
        fault: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.db_path = db_path
        self.config = config or ServeConfig()
        self._clock = clock
        factory = store_factory or (
            lambda: open_store(db_path, readonly=True)
        )
        self.pool = ReadPool(factory, self.config.readers)
        self.queries = QueryService(self.pool, fault=fault, clock=clock)
        self.admission = AdmissionController(
            TokenBucket(
                self.config.rate_per_second, self.config.burst, clock=clock
            ),
            queue_limit=self.config.accept_queue,
            retry_after_base=self.config.retry_after_base,
            retry_after_max=self.config.retry_after_max,
            clock=clock,
        )
        self.breakers = {
            endpoint: CircuitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown,
                clock=clock,
            )
            for endpoint in DATA_ENDPOINTS
        }
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._in_flight: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self.port: int | None = None

        tel = _telemetry.get()
        self._m_requests = tel.counter(
            "repro_serve_requests_total",
            "Completed serve responses by endpoint and status code",
            labels=("endpoint", "code"),
        )
        self._m_latency = tel.histogram(
            "repro_serve_request_seconds",
            "Wall-clock per serve request (parse to last byte)",
            labels=("endpoint",),
        )
        self._m_shed = tel.counter(
            "repro_serve_shed_total",
            "Requests shed instead of served, by reason",
            labels=("reason",),
        )
        self._m_breaker = tel.gauge(
            "repro_serve_breaker_state",
            "Per-endpoint breaker state (0 closed, 1 half-open, 2 open)",
            labels=("endpoint",),
        )
        self._m_in_flight = tel.gauge(
            "repro_serve_in_flight", "Requests currently being served"
        )
        self._m_draining = tel.gauge(
            "repro_serve_draining", "1 while SIGTERM drain is in progress"
        )
        self._telemetry = tel

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Open the reader pool and start listening; sets :attr:`port`."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_request_bytes,
            backlog=_BACKLOG,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    async def drain(self) -> bool:
        """Graceful shutdown: stop accepting, refuse new requests with
        503, let in-flight requests finish up to
        ``ServeConfig.drain_deadline``, then force-close stragglers.
        Returns True when everything finished inside the deadline."""
        self._draining = True
        self._m_draining.set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._in_flight if not task.done()}
        clean = True
        if pending:
            done, still = await asyncio.wait(
                pending, timeout=self.config.drain_deadline
            )
            if still:
                clean = False
                for task in still:
                    task.cancel()
                await asyncio.gather(*still, return_exceptions=True)
        for writer in list(self._writers):
            self._close_writer(writer)
        self.pool.close()
        return clean

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        self._writers.discard(writer)
        try:
            writer.close()
        except Exception:
            pass

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # start_server runs this coroutine as its own task per
        # connection; registering the task lets drain() await (or, past
        # the drain deadline, cancel) every in-flight request.
        task = asyncio.current_task()
        assert task is not None
        self._in_flight.add(task)
        self._writers.add(writer)
        self._m_in_flight.set(len(self._in_flight))
        try:
            await self._handle(reader, writer)
        except asyncio.CancelledError:
            # Drain force-close cancels connection tasks; finishing the
            # task normally (the socket is already closed) keeps
            # asyncio's stream callback from logging the cancellation.
            pass
        finally:
            self._in_flight.discard(task)
            self._writers.discard(writer)
            self._m_in_flight.set(len(self._in_flight))

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        endpoint = "unparsed"
        status = 0
        try:
            request = await self._read_head(reader, writer)
            if request is None:
                return
            method, target = request
            endpoint, payload = await self._route(method, target)
            status = self._send(writer, payload)
        except asyncio.CancelledError:
            # Drain deadline force-close: never leave a half response.
            self._close_writer(writer)
            raise
        except (ConnectionError, OSError):
            pass  # client went away mid-reply
        finally:
            if status:
                self._m_requests.labels(
                    endpoint=endpoint, code=str(status)
                ).inc()
                self._m_latency.labels(endpoint=endpoint).observe(
                    time.perf_counter() - started
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writers.discard(writer)

    async def _read_head(self, reader, writer):
        """Parse ``METHOD TARGET`` under the slow-loris bounds; handles
        its own error responses and returns None when unusable."""
        try:
            blob = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=self.config.header_timeout,
            )
        except asyncio.TimeoutError:
            self._shed("slow-client")
            self._try_send(writer, _response(408, "request timeout\n"))
            return None
        except asyncio.LimitOverrunError:
            self._shed("oversized-head")
            self._try_send(writer, _response(431, "request head too large\n"))
            return None
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        request_line = blob.split(b"\r\n", 1)[0]
        try:
            method, target, _version = (
                request_line.decode("latin-1").split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            self._try_send(writer, _response(400, "malformed request line\n"))
            return None
        return method, target

    def _try_send(self, writer, data: bytes) -> None:
        try:
            writer.write(data)
        except (ConnectionError, OSError):
            pass

    def _send(self, writer, payload: bytes) -> int:
        writer.write(payload)
        # Status code is parsed back out of the framed response so the
        # metrics always match what was actually sent.
        return int(payload.split(b" ", 2)[1])

    def _shed(self, reason: str) -> None:
        self._m_shed.labels(reason=reason).inc()

    # -- routing + envelope ---------------------------------------------

    def _update_breaker_gauges(self) -> None:
        for endpoint, breaker in self.breakers.items():
            self._m_breaker.labels(endpoint=endpoint).set(
                breaker.state_value
            )

    def _deadline_from(self, params: dict) -> float | None:
        raw = params.get("deadline_ms", [None])[0]
        if raw is None:
            budget = self.config.default_deadline
        else:
            try:
                budget = int(raw) / 1000.0
            except ValueError:
                return None
            if budget <= 0:
                return None
        return self._clock() + min(budget, self.config.max_deadline)

    async def _route(self, method: str, target: str):
        """Returns ``(endpoint_label, framed_response_bytes)``."""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        params = parse_qs(parts.query)

        if path == "/healthz":
            return "healthz", _response(200, "ok\n")
        if path == "/readyz":
            return "readyz", self._readyz()
        if method not in ("GET", "HEAD"):
            return "other", _response(405, "only GET is served\n")

        endpoint, handler = self._dispatch(path, params)
        if handler is None:
            return endpoint, _response(404, f"no such resource {path}\n")

        if self._draining:
            self._shed("drain")
            return endpoint, _response(
                503, {"error": "draining", "retry_after": 1}, retry_after=1
            )

        deadline = self._deadline_from(params)
        if deadline is None:
            return endpoint, _response(
                400, {"error": "deadline_ms must be a positive integer"}
            )

        admission = await self.admission.admit(deadline)
        if not admission.admitted:
            self._shed("admission")
            return endpoint, _response(
                429,
                {"error": "overloaded", "retry_after": admission.retry_after},
                retry_after=admission.retry_after,
            )

        breaker = self.breakers[endpoint]
        if not breaker.allow():
            self._shed("breaker")
            self._update_breaker_gauges()
            return endpoint, _response(
                503,
                {"error": "circuit open", "endpoint": endpoint,
                 "retry_after": 1},
                retry_after=1,
            )

        try:
            with self._telemetry.span(f"serve:{endpoint}"):
                payload = await handler(deadline)
        except BadRequest as exc:
            breaker.record_success()  # client error: store is healthy
            response = _response(400, {"error": str(exc)})
        except NotFound as exc:
            breaker.record_success()
            response = _response(404, {"error": str(exc)})
        except DeadlineExceeded:
            self._shed("deadline")
            breaker.record_failure()
            response = _response(
                503, {"error": "deadline exceeded", "endpoint": endpoint},
                retry_after=1,
            )
        except Exception as exc:  # fail closed: any surprise is a 503
            self._shed("store-error")
            breaker.record_failure()
            response = _response(
                503,
                {"error": "store unavailable",
                 "detail": type(exc).__name__},
                retry_after=1,
            )
        else:
            breaker.record_success()
            response = _response(200, payload)
        self._update_breaker_gauges()
        return endpoint, response

    def _dispatch(self, path: str, params: dict):
        """Map a path to ``(endpoint_label, handler(deadline))``."""
        segments = [s for s in path.split("/") if s]
        if segments == ["rounds"]:
            return "rounds", self.queries.rounds
        if len(segments) == 2 and segments[0] == "rounds":
            raw = segments[1]
            return "round", lambda d: self.queries.round_detail(raw, d)
        if len(segments) == 2 and segments[0] == "ip":
            raw = segments[1]
            return "ip", lambda d: self.queries.ip_history(raw, d)
        if len(segments) == 2 and segments[0] == "clusters":
            raw = segments[1]
            column = params.get("column", ["template"])[0]
            try:
                limit = int(params.get("limit", ["20"])[0])
            except ValueError:
                limit = -1  # surfaces as BadRequest from the query
            return "clusters", lambda d: self.queries.cluster_aggregate(
                raw, d, column=column, limit=limit
            )
        return "other", None

    def _readyz(self) -> bytes:
        if self._draining:
            return _response(503, {"ready": False, "reason": "draining"})
        states = {
            endpoint: breaker.state
            for endpoint, breaker in self.breakers.items()
        }
        if all(state == "open" for state in states.values()):
            return _response(
                503, {"ready": False, "reason": "all breakers open",
                      "breakers": states}
            )
        return _response(200, {"ready": True, "breakers": states})
