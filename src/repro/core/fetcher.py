"""The WhoWas webpage fetcher (§4).

For every IP the scanner reported with port 80 or 443 open, a worker
from the pool issues at most two GET requests: first ``/robots.txt``,
then — unless robots forbids it — the top-level page.  The fetcher
records the status code, response headers and any error; text bodies are
stored up to 512 KB, while "application/*", "audio/*", "image/*" and
"video/*" bodies are never downloaded (the analysis engine cannot
process non-text data).  Links are never followed and active content is
never executed.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from .backoff import backoff_delay
from .config import FetchConfig
from .guard import GuardVerdict, StageDeadlineExceeded, Supervisor
from .records import FetchResult, FetchStatus, ProbeOutcome
from .transport import (
    HttpResponse,
    Transport,
    TransportError,
    classify_error,
    format_ip,
)

__all__ = ["parse_robots", "decode_body", "Fetcher"]


def parse_robots(body: str, user_agent: str = "*") -> bool:
    """Return True if robots.txt allows fetching the top-level page.

    Minimal robots-exclusion parser: honours ``Disallow`` rules in the
    ``*`` group and in any group whose agent token appears in our
    User-Agent string.  A disallow of ``/`` blocks the root fetch; a
    bare ``Disallow:`` (empty value) allows everything.  Consecutive
    ``User-agent`` lines form one group — its rules apply if *any* of
    the named agents matches.
    """
    agent_lower = user_agent.lower()
    applies = False
    in_agent_run = False
    for raw_line in body.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            # Comment-only and blank lines don't terminate an agent run
            # (robots.txt in the wild puts comments between UA lines).
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            token = value.lower()
            matches = token == "*" or (token != "" and token in agent_lower)
            applies = (applies or matches) if in_agent_run else matches
            in_agent_run = True
        else:
            in_agent_run = False
            if field == "disallow" and applies and value == "/":
                return False
    return True


def _charset_of(content_type: str) -> str | None:
    """The ``charset=`` parameter of a Content-Type header, if any."""
    for param in content_type.split(";")[1:]:
        name, _, value = param.partition("=")
        if name.strip().lower() == "charset":
            value = value.strip().strip("\"'").lower()
            return value or None
    return None


def decode_body(raw: bytes, content_type: str) -> str:
    """Decode a response body honouring the declared charset.

    Falls back to UTF-8 when no (or an unknown/hostile) charset is
    declared; ``errors="replace"`` in both paths means decoding never
    raises, so non-UTF-8 pages stop mojibake-ing feature extraction
    without poison charsets gaining a crash vector.
    """
    charset = _charset_of(content_type)
    if charset:
        try:
            return raw.decode(charset, errors="replace")
        except (LookupError, ValueError):
            pass  # unknown or non-text codec name: fall back
    return raw.decode("utf-8", errors="replace")


class Fetcher:
    """Worker pool fetching top-level pages from responsive IPs.

    The pool runs through the supervision layer
    (:class:`~repro.core.guard.Supervisor`): a bounded work queue
    instead of one task per IP, a per-IP wall-clock deadline, and AIMD
    backpressure on the concurrency limit.  A standalone fetcher builds
    its own supervisor; the platform injects a shared one so fetch and
    extract feed the same quarantine.
    """

    def __init__(
        self,
        transport: Transport,
        config: FetchConfig | None = None,
        guard: Supervisor | None = None,
    ):
        self.transport = transport
        self.config = config or FetchConfig()
        self.guard = guard or Supervisor(concurrency=self.config.workers)
        #: GET counter across the fetcher's lifetime (ethics audit: at
        #: most two GETs per IP per round — plus explicitly configured
        #: retries, which are off by default to keep paper semantics).
        self.gets_sent = 0
        #: Page fetches that ended in a transport error (after retries).
        self.fetch_errors = 0

    async def fetch_ip(self, outcome: ProbeOutcome) -> FetchResult:
        """Fetch one IP's top-level page, honouring robots.txt."""
        scheme = outcome.scheme
        if scheme is None:
            return FetchResult(ip=outcome.ip, status=FetchStatus.NOT_ATTEMPTED)
        url = f"{scheme}://{format_ip(outcome.ip)}/"
        if self.config.respect_robots:
            allowed = await self._robots_allows(outcome.ip, scheme)
            if not allowed:
                return FetchResult(
                    ip=outcome.ip, status=FetchStatus.ROBOTS_DISALLOWED, url=url
                )
        try:
            response = await self._get_with_retries(outcome.ip, scheme, "/")
        except TransportError as exc:
            self.fetch_errors += 1
            return FetchResult(
                ip=outcome.ip,
                status=FetchStatus.ERROR,
                url=url,
                error=str(exc),
                error_class=classify_error(exc),
            )
        body = self._body_text(response)
        return FetchResult(
            ip=outcome.ip,
            status=FetchStatus.OK,
            url=url,
            status_code=response.status_code,
            headers=dict(response.headers),
            body=body,
        )

    async def fetch(
        self,
        outcomes: Sequence[ProbeOutcome],
        *,
        quarantine: list | None = None,
    ) -> list[FetchResult]:
        """Fetch many IPs through the supervised pool; preserves order.

        Every per-IP task runs under ``GuardConfig.fetch_deadline``; a
        blown deadline or an exception that escapes :meth:`fetch_ip`
        becomes an ERROR result plus a quarantine record instead of a
        crashed round.  With *quarantine*, dead letters land in that
        per-shard sink (pipeline shard attribution) instead of the
        supervisor-wide buffer.
        """

        def failed(result: FetchResult) -> bool:
            return result.status is FetchStatus.ERROR

        def fallback(outcome: ProbeOutcome, exc: BaseException) -> FetchResult:
            self.fetch_errors += 1
            verdict = (
                GuardVerdict.STAGE_DEADLINE
                if isinstance(exc, StageDeadlineExceeded)
                else GuardVerdict.TASK_ERROR
            )
            self.guard.quarantine(
                ip=outcome.ip, stage=Supervisor.FETCH, verdict=verdict,
                exc=exc, sink=quarantine,
            )
            url = ""
            if outcome.scheme is not None:
                url = f"{outcome.scheme}://{format_ip(outcome.ip)}/"
            return FetchResult(
                ip=outcome.ip,
                status=FetchStatus.ERROR,
                url=url,
                error=str(exc),
                error_class=classify_error(exc),
            )

        return list(await self.guard.map(
            outcomes,
            self.fetch_ip,
            stage=Supervisor.FETCH,
            deadline=self.guard.config.fetch_deadline,
            is_failure=failed,
            fallback=fallback,
        ))

    def fetch_sync(self, outcomes: Sequence[ProbeOutcome]) -> list[FetchResult]:
        return asyncio.run(self.fetch(outcomes))

    def stats_snapshot(self) -> dict[str, int]:
        """Lifetime counters, snapshotted — the platform diffs two
        snapshots to attribute errors/operations to one shard."""
        return {
            "gets_sent": self.gets_sent,
            "fetch_errors": self.fetch_errors,
        }

    # ------------------------------------------------------------------

    async def _robots_allows(self, ip: int, scheme: str) -> bool:
        try:
            response = await self._get(ip, scheme, "/robots.txt")
        except TransportError:
            # Unreachable robots.txt does not forbid the main fetch.
            return True
        if response.status_code != 200:
            return True
        text = response.body.decode("utf-8", errors="replace")
        return parse_robots(text, self.config.user_agent)

    async def _get(self, ip: int, scheme: str, path: str) -> HttpResponse:
        self.gets_sent += 1
        return await self.transport.get(
            ip,
            scheme,
            path,
            timeout=self.config.timeout,
            max_body=self.config.max_body_bytes,
            headers={"User-Agent": self.config.user_agent},
        )

    async def _get_with_retries(
        self, ip: int, scheme: str, path: str
    ) -> HttpResponse:
        """The page GET, with the optional bounded retry-with-jitter
        policy (``FetchConfig.retries``, 0 by default — the paper never
        retries).  Backoff is deterministic per (ip, attempt) so chaos
        runs replay exactly."""
        attempts = 1 + max(0, self.config.retries)
        for attempt in range(attempts):
            try:
                return await self._get(ip, scheme, path)
            except TransportError:
                if attempt + 1 >= attempts:
                    raise
                await asyncio.sleep(self._backoff_delay(ip, attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff_delay(self, ip: int, attempt: int) -> float:
        return backoff_delay(
            attempt,
            base=self.config.retry_base_delay,
            cap=self.config.retry_max_delay,
            key=f"fetch-retry:{ip}:{attempt}",
            jitter_min=0.5,
            jitter_max=1.0,
        )

    def _body_text(self, response: HttpResponse) -> str | None:
        if not self.config.should_download(response.content_type):
            return None
        raw = response.body[: self.config.max_body_bytes]
        return decode_body(raw, response.header("content-type"))
