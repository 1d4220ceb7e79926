"""The WhoWas webpage fetcher (§4).

For every IP the scanner reported with port 80 or 443 open, the fetcher
issues at most two GET requests: first ``/robots.txt``, then — unless
robots forbids it — the top-level page.  It records the status code,
response headers and any error; text bodies are stored up to 512 KB,
while "application/*", "audio/*", "image/*" and "video/*" bodies are
never downloaded (the analysis engine cannot process non-text data).
Links are never followed and active content is never executed.

A shard's IPs are fetched one of two ways.  A transport with
``get_many`` (:class:`~repro.core.transport.BatchGet`) gets the shard's
robots.txt GETs in one call and its page GETs in another.  Any other
transport is driven through the supervised pool, one deadline-guarded
task per IP.  Both give each IP the same result, counters and
quarantine records.
"""

from __future__ import annotations

import asyncio
import re
from typing import Sequence

from .config import FetchConfig
from .guard import (
    FETCH_DEADLINE,
    GuardVerdict,
    StageDeadlineExceeded,
    Supervisor,
)
from .records import FetchResult, FetchStatus, ProbeOutcome
from .transport import (
    HttpResponse,
    Transport,
    TransportError,
    classify_error,
    format_ip,
)

__all__ = ["parse_robots", "decode_body", "Fetcher"]

#: Only the first this-many bytes of a text body are stored (512 KB,
#: §4); the cap also bounds what a hostile server can make us hold.
MAX_BODY_BYTES = 512 * 1024


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


#: A UTF-16 surrogate code point: never part of a decoded str that
#: UTF-8 can encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    without poison charsets gaining a crash vector.  A codec that can
    decode to a lone surrogate (``unicode_escape`` turns ``\\ud83d``
    into one) has each replaced with U+FFFD too: such a str cannot be
    encoded as UTF-8, so the store could not write the page.
    """
    charset = _charset_of(content_type)
    if charset:
        try:
            text = raw.decode(charset, errors="replace")
        except (LookupError, ValueError):
            pass  # unknown or non-text codec name: fall back
        else:
            return text if text.isascii() else _SURROGATE.sub("\ufffd", text)
    return raw.decode("utf-8", errors="replace")


def _response(slot):
    """A batch slot's response, or the exception it holds, raised."""
    if isinstance(slot, Exception):
        raise slot
    return slot


class Fetcher:
    """Fetches top-level pages from responsive IPs.

    A transport without ``get_many`` is driven by a worker pool run
    through the supervision layer (:class:`~repro.core.guard.Supervisor`):
    a bounded work queue instead of one task per IP, a per-IP wall-clock
    deadline, and AIMD backpressure on the concurrency limit.  A
    ``BatchGet`` transport gets the shard in batch calls, with the same
    trap, quarantine and AIMD accounting per IP.  A standalone fetcher
    builds its own supervisor; the platform injects a shared one so
    fetch and extract feed the same quarantine.
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
        #: most two GETs per IP per round).
        self.gets_sent = 0
        #: Page fetches that ended in a transport error.
        self.fetch_errors = 0

    async def fetch_ip(self, outcome: ProbeOutcome) -> FetchResult:
        """Fetch one IP's top-level page, honouring robots.txt."""
        scheme = outcome.scheme
        if scheme is None:
            return FetchResult(ip=outcome.ip, status=FetchStatus.NOT_ATTEMPTED)
        if not await self._robots_allows(outcome.ip, scheme):
            return self._disallowed(outcome)
        try:
            response = await self._get(outcome.ip, scheme, "/")
        except TransportError as exc:
            return self._error(outcome, exc)
        return self._page(outcome, response)

    async def fetch(
        self,
        outcomes: Sequence[ProbeOutcome],
        *,
        quarantine: list | None = None,
    ) -> list[FetchResult]:
        """Fetch many IPs; preserves order.

        An exception that escapes one IP's fetch becomes an ERROR result
        plus a quarantine record instead of a crashed round, and on the
        pooled path so does a blown :data:`~repro.core.guard.FETCH_DEADLINE`.
        With *quarantine*, dead letters land in that per-shard sink
        (pipeline shard attribution) instead of the supervisor-wide
        buffer.
        """

        def fallback(outcome: ProbeOutcome, exc: BaseException) -> FetchResult:
            verdict = (
                GuardVerdict.STAGE_DEADLINE
                if isinstance(exc, StageDeadlineExceeded)
                else GuardVerdict.TASK_ERROR
            )
            self.guard.quarantine(
                ip=outcome.ip, stage=Supervisor.FETCH, verdict=verdict,
                exc=exc, sink=quarantine,
            )
            return self._error(outcome, exc)

        get_many = getattr(self.transport, "get_many", None)
        if get_many is not None:
            results = await self._fetch_batched(get_many, outcomes, fallback)
            self.guard.settle(
                [result.status is not FetchStatus.ERROR for result in results])
            return results
        return list(await self.guard.map(
            outcomes,
            self.fetch_ip,
            stage=Supervisor.FETCH,
            deadline=FETCH_DEADLINE,
            is_failure=lambda result: result.status is FetchStatus.ERROR,
            fallback=fallback,
        ))

    async def _fetch_batched(
        self, get_many, outcomes: Sequence[ProbeOutcome], fallback
    ) -> list[FetchResult]:
        """:meth:`fetch_ip` for a whole shard, a pass at a time: every
        robots.txt GET in one ``get_many`` call, then every allowed page
        GET in one more.  An exception in an IP's slot is trapped into
        *fallback*, as the pool would."""
        config = self.config
        results: list = [None] * len(outcomes)
        todo = []
        for index, outcome in enumerate(outcomes):
            if outcome.scheme is None:
                results[index] = FetchResult(
                    ip=outcome.ip, status=FetchStatus.NOT_ATTEMPTED)
            else:
                todo.append(index)

        async def send(path: str) -> list:
            self.gets_sent += len(todo)
            requests = [
                (outcomes[index].ip, outcomes[index].scheme, path)
                for index in todo
            ]
            try:
                return await get_many(
                    requests, timeout=config.timeout,
                    max_body=MAX_BODY_BYTES,
                    headers={"User-Agent": config.user_agent},
                )
            except Exception as exc:  # the whole call failed: every slot
                return [exc] * len(requests)

        def trap(index: int, exc: Exception) -> None:
            results[index] = self.guard.trap(
                Supervisor.FETCH, outcomes[index], exc, fallback)

        if todo:
            allowed = []
            for index, answer in zip(todo, await send("/robots.txt")):
                try:
                    # Unreachable robots.txt does not forbid the main
                    # fetch.
                    if (isinstance(answer, TransportError)
                            or self._robots_permit(_response(answer))):
                        allowed.append(index)
                    else:
                        results[index] = self._disallowed(outcomes[index])
                except Exception as exc:  # poison-proof by design
                    trap(index, exc)
            todo = allowed
        if todo:
            for index, answer in zip(todo, await send("/")):
                try:
                    if isinstance(answer, TransportError):
                        results[index] = self._error(outcomes[index], answer)
                    else:
                        results[index] = self._page(
                            outcomes[index], _response(answer))
                except Exception as exc:  # poison-proof by design
                    trap(index, exc)
        return results

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
        return self._robots_permit(response)

    def _robots_permit(self, response: HttpResponse) -> bool:
        if response.status_code != 200:
            return True
        text = response.body.decode("utf-8", errors="replace")
        return parse_robots(text, self.config.user_agent)

    # One constructor per kind of result, shared by both drains.

    @staticmethod
    def _url(outcome: ProbeOutcome) -> str:
        if outcome.scheme is None:
            return ""
        return f"{outcome.scheme}://{format_ip(outcome.ip)}/"

    def _disallowed(self, outcome: ProbeOutcome) -> FetchResult:
        return FetchResult(
            ip=outcome.ip, status=FetchStatus.ROBOTS_DISALLOWED,
            url=self._url(outcome),
        )

    def _error(self, outcome: ProbeOutcome, exc: BaseException) -> FetchResult:
        self.fetch_errors += 1
        return FetchResult(
            ip=outcome.ip,
            status=FetchStatus.ERROR,
            url=self._url(outcome),
            error=str(exc),
            error_class=classify_error(exc),
        )

    def _page(
        self, outcome: ProbeOutcome, response: HttpResponse
    ) -> FetchResult:
        return FetchResult(
            ip=outcome.ip,
            status=FetchStatus.OK,
            url=self._url(outcome),
            status_code=response.status_code,
            headers=dict(response.headers),
            body=self._body_text(response),
        )

    async def _get(self, ip: int, scheme: str, path: str) -> HttpResponse:
        self.gets_sent += 1
        return await self.transport.get(
            ip,
            scheme,
            path,
            timeout=self.config.timeout,
            max_body=MAX_BODY_BYTES,
            headers={"User-Agent": self.config.user_agent},
        )

    def _body_text(self, response: HttpResponse) -> str | None:
        if not self.config.should_download(response.content_type):
            return None
        raw = response.body[:MAX_BODY_BYTES]
        return decode_body(raw, response.header("content-type"))
