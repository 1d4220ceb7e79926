"""Network transport abstraction for the scanner and fetcher.

The WhoWas pipeline is written against the :class:`Transport` protocol so
that identical scanner/fetcher code drives either the real network
(:class:`SocketTransport`) or the cloud simulator
(:class:`repro.cloudsim.network.SimulatedTransport`).  Three optional
capabilities are detected with ``getattr``: :class:`RoundAware`
(``on_round_start``), :class:`BatchProbe` (``probe_many``, one call for
a whole pass of a shard's probes) and :class:`BatchGet` (``get_many``
and ``banner_many``, the same for its GETs and banner reads).

:class:`SocketTransport` implements the probe as a plain TCP connect
(equivalent in effect to the paper's SYN probing: an accepted handshake
means the port is open) and HTTP fetches with a deliberately minimal
HTTP/1.1 client — no redirects followed, no active content executed, and
bodies capped by the caller, matching the paper's fetcher behaviour.
"""

from __future__ import annotations

import asyncio
import ssl
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from .records import Port

__all__ = [
    "HttpResponse",
    "TransportError",
    "ConnectTimeout",
    "ConnectionRefused",
    "ProtocolError",
    "BodyTruncated",
    "classify_error",
    "format_ip",
    "Transport",
    "RoundAware",
    "BatchProbe",
    "BatchGet",
    "SocketTransport",
]


class TransportError(Exception):
    """Connection, protocol, or timeout error during probe or fetch.

    Subclasses form the failure taxonomy threaded through the pipeline:
    ``ProbeOutcome.error_class`` and ``FetchResult.error_class`` record
    the :attr:`kind` of the error that caused a failure, so analyses can
    distinguish a dead host from a hostile network without re-parsing
    error strings.
    """

    #: Stable machine-readable label persisted in records.
    kind = "transport-error"


class ConnectTimeout(TransportError):
    """The TCP handshake (or the whole request) exceeded its deadline."""

    kind = "connect-timeout"


class ConnectionRefused(TransportError):
    """The host actively refused or reset the connection attempt."""

    kind = "connection-refused"


class ProtocolError(TransportError):
    """The peer spoke, but not valid HTTP (garbage status line, bad
    chunk framing, mid-stream reset)."""

    kind = "protocol-error"


class BodyTruncated(TransportError):
    """The connection died before the advertised body arrived."""

    kind = "body-truncated"


def classify_error(exc: BaseException) -> str:
    """The taxonomy label for *exc* (``"transport-error"`` fallback)."""
    if isinstance(exc, TransportError):
        return exc.kind
    return TransportError.kind


@dataclass(frozen=True)
class HttpResponse:
    """A raw HTTP response as seen by the fetcher."""

    status_code: int
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return default

    @property
    def content_type(self) -> str:
        return self.header("content-type").split(";")[0].strip().lower()


@runtime_checkable
class Transport(Protocol):
    """What the scanner and fetcher need from the network.

    ``probe`` is the one probe primitive every transport has; the
    scanner drains its job queue through a pool of workers calling it,
    unless the transport also offers :class:`BatchProbe`."""

    async def probe(self, ip: int, port: int, timeout: float) -> bool:
        """Attempt a TCP handshake; True iff the port accepted within
        *timeout* seconds.  May raise a :class:`TransportError` subclass
        to report a *classified* failure; the scanner treats that as a
        failed probe and records the error class.  Must not raise
        anything else on ordinary failures."""
        ...

    async def get(
        self,
        ip: int,
        scheme: str,
        path: str,
        *,
        timeout: float,
        max_body: int,
        headers: Mapping[str, str] | None = None,
    ) -> HttpResponse:
        """Issue ``GET path`` to ``scheme://ip/``.  Raises
        :class:`TransportError` on connection or protocol failure."""
        ...

    async def banner(self, ip: int, port: int, timeout: float) -> str:
        """Read the service banner a server sends on connect (SSH
        servers announce ``SSH-2.0-...``).  Raises
        :class:`TransportError` if the port refuses or stays silent."""
        ...


@runtime_checkable
class RoundAware(Protocol):
    """Transports that want to know when a measurement round begins.

    The platform calls :meth:`on_round_start` before the first probe of
    each round; :class:`repro.core.faults.FaultyTransport` uses it to
    scope fault rules per round."""

    def on_round_start(self, round_id: int) -> None:
        ...


@runtime_checkable
class BatchProbe(Protocol):
    """Transports that answer a whole pass of probes in one call.

    The scanner looks ``probe_many`` up with ``getattr`` and, when it is
    there, sends everything queued in one call after one rate-limiter
    grant for all of it — so an implementation over a real network
    would have to pace and bound its own in-flight probes.  A wrapper
    that adds per-probe behaviour (latency, faults, tracing) must not
    forward it, not even through a delegating ``__getattr__``: the
    scanner would then skip the wrapper's ``probe``."""

    async def probe_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[bool | TransportError]:
        """One result per ``(ip, port)``, in order: what ``probe``
        would have returned, or the classified :class:`TransportError`
        it would have raised, in its slot instead of raised."""
        ...


@runtime_checkable
class BatchGet(Protocol):
    """Transports that answer a shard's GETs, and its banner reads, a
    pass at a time.

    The fetcher looks ``get_many`` up with ``getattr`` and, when it is
    there, sends a shard's robots.txt GETs in one call and its page GETs
    in another (plus one per retry pass); the platform sends its SSH
    banner reads through ``banner_many`` the same way.  These calls run
    outside the supervised pool — no per-IP deadline, no concurrency
    limit — which loses nothing only for a transport whose calls never
    wait (a deadline cannot interrupt a call that never suspends).  An
    implementation over a real network would have to bound and time
    out its own requests.  As with :class:`BatchProbe`, a wrapper that
    adds per-call behaviour must not forward either method, not even
    through a delegating ``__getattr__``."""

    async def get_many(
        self,
        requests: Sequence[tuple[int, str, str]],
        *,
        timeout: float,
        max_body: int,
        headers: Mapping[str, str] | None = None,
    ) -> list[HttpResponse | Exception]:
        """One answer per ``(ip, scheme, path)``, in order: what ``get``
        would have returned, or the exception it would have raised — a
        classified :class:`TransportError` for an ordinary failure — in
        its slot instead of raised."""
        ...

    async def banner_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[str | Exception]:
        """One answer per ``(ip, port)``, in order, as ``get_many``
        answers for ``get``: ``banner``'s result or its exception."""
        ...


def format_ip(ip: int) -> str:
    """Dotted-quad form of an IPv4 address held as an int."""
    return f"{ip >> 24 & 0xFF}.{ip >> 16 & 0xFF}.{ip >> 8 & 0xFF}.{ip & 0xFF}"


class SocketTransport:
    """Real-network transport built on asyncio streams.

    ``port_map`` lets tests redirect the well-known ports to a local
    server (e.g. ``{80: 8080}`` probes 8080 whenever the caller asks
    for 80) without touching scanner/fetcher code.
    """

    def __init__(self, port_map: Mapping[int, int] | None = None):
        self._port_map = dict(port_map or {})

    def _real_port(self, port: int) -> int:
        return self._port_map.get(port, port)

    async def probe(self, ip: int, port: int, timeout: float) -> bool:
        host = format_ip(ip)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, self._real_port(port)),
                timeout=timeout,
            )
        except (OSError, asyncio.TimeoutError):
            return False
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        return True

    async def banner(self, ip: int, port: int, timeout: float) -> str:
        """Connect and read the first line the server volunteers."""
        host = format_ip(ip)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, self._real_port(port)),
                timeout=timeout,
            )
        except asyncio.TimeoutError as exc:
            raise ConnectTimeout(f"connect to {host}:{port} timed out") from exc
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(f"connect to {host}:{port} refused") from exc
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed") from exc
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        except asyncio.TimeoutError as exc:
            raise ConnectTimeout(f"no banner from {host}:{port}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        return line.decode("latin-1", errors="replace").strip()

    async def get(
        self,
        ip: int,
        scheme: str,
        path: str,
        *,
        timeout: float,
        max_body: int,
        headers: Mapping[str, str] | None = None,
    ) -> HttpResponse:
        host = format_ip(ip)
        port = self._real_port(Port.HTTPS if scheme == "https" else Port.HTTP)
        ssl_context = None
        if scheme == "https":
            # The fetcher talks to bare IPs, so certificates can never
            # match; content, not authenticity, is what is measured.
            ssl_context = ssl.create_default_context()
            ssl_context.check_hostname = False
            ssl_context.verify_mode = ssl.CERT_NONE
        try:
            return await asyncio.wait_for(
                self._request(host, port, path, ssl_context, headers, max_body),
                timeout=timeout,
            )
        except asyncio.TimeoutError as exc:
            raise ConnectTimeout(
                f"timeout fetching {scheme}://{host}{path}"
            ) from exc
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(str(exc)) from exc
        except asyncio.IncompleteReadError as exc:
            raise BodyTruncated(str(exc)) from exc
        except ConnectionResetError as exc:
            raise ProtocolError(str(exc)) from exc
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    async def _request(
        self,
        host: str,
        port: int,
        path: str,
        ssl_context: ssl.SSLContext | None,
        headers: Mapping[str, str] | None,
        max_body: int,
    ) -> HttpResponse:
        reader, writer = await asyncio.open_connection(host, port, ssl=ssl_context)
        try:
            request_headers = {
                "Host": host,
                "Accept": "*/*",
                "Connection": "close",
            }
            if headers:
                request_headers.update(headers)
            lines = [f"GET {path} HTTP/1.1"]
            lines.extend(f"{name}: {value}" for name, value in request_headers.items())
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
            await writer.drain()
            return await self._read_response(reader, max_body)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _read_response(
        self, reader: asyncio.StreamReader, max_body: int
    ) -> HttpResponse:
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ProtocolError(f"malformed status line: {status_line!r}")
        try:
            status_code = int(parts[1])
        except ValueError as exc:
            raise ProtocolError(f"malformed status code: {parts[1]!r}") from exc
        response_headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip()] = value.strip()
        transfer = response_headers.get(
            "Transfer-Encoding", response_headers.get("transfer-encoding", "")
        )
        if "chunked" in transfer.lower():
            body = await self._read_chunked(reader, max_body)
        else:
            body = await reader.read(max_body)
        return HttpResponse(status_code, response_headers, body)

    async def _read_chunked(
        self, reader: asyncio.StreamReader, max_body: int
    ) -> bytes:
        chunks: list[bytes] = []
        total = 0
        while total < max_body:
            size_line = await reader.readline()
            try:
                size = int(size_line.split(b";")[0].strip() or b"0", 16)
            except ValueError as exc:
                raise ProtocolError(f"malformed chunk size: {size_line!r}") from exc
            if size == 0:
                break
            chunk = await reader.readexactly(min(size, max_body - total))
            chunks.append(chunk)
            total += len(chunk)
            if len(chunk) < size:  # truncated at the cap; stop reading
                break
            await reader.readline()  # trailing CRLF
        return b"".join(chunks)
