"""Load generator for the ``serve`` workload.

One process, at most ``connections`` blocking sockets in flight (the
server closes every connection after one response, so a request is a
connection).  Two loops:

* **open**: requests fire at arrival times fixed up front from the
  seed, whatever the server does, and latency is charged from the
  *scheduled* time — a stall costs every request that was due during
  it.  How late the generator itself fired is reported as lag: from
  the moment a request was due *and* a connection was free for it,
  since waiting for one of the few connections is the server's doing
  (and is in the latency), not the generator's.
* **closed**: each client sends its next request when the previous one
  completes; completions per second is the capacity figure.

The schedule and the paths are a pure function of the seed and of the
store's contents.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass

from repro.cloudsim.addressing import int_to_ip
from repro.serve import RqsWorkload

#: Share of each endpoint in the traffic: mostly WhoWas lookups, some
#: round browsing, occasional aggregates.
KIND_MIX = {"ip": 70.0, "rounds": 15.0, "round": 7.5, "clusters": 7.5}
#: Looked-up addresses: a fixed population drawn Zipf(1.0), so a few
#: keys repeat often (a result cache would show) while most are rare
#: (it could not be total).
POPULATION = 2000
SEEN_SHARE = 0.8
#: Requests each simulated user sends per second; users come and go
#: per second (``RqsWorkload``), which makes arrivals bursty.
RATE_PER_USER = 20.0
TIMEOUT = 5.0


def ip_population(seen: list[int], rng: random.Random) -> list[str]:
    """Lookup keys in popularity order: 80 % addresses the store has
    seen in some round, 20 % it never has (absence is an answer too)."""
    seen_set = set(seen)
    want_seen = min(len(seen), round(POPULATION * SEEN_SHARE))
    want_never = max(1, round(want_seen * (1 - SEEN_SHARE) / SEEN_SHARE))
    never = []
    candidate = min(seen)
    while len(never) < want_never:
        if candidate not in seen_set:
            never.append(candidate)
        candidate += 1
    keys = rng.sample(sorted(seen), want_seen) + never
    rng.shuffle(keys)
    return [int_to_ip(ip) for ip in keys]


class PathMix:
    """Turns an endpoint kind into a concrete path, seeded."""

    def __init__(self, seen_ips: list[int], round_ids: list[int], seed: int):
        self.rng = random.Random(seed)
        self.ips = ip_population(seen_ips, self.rng)
        total = 0.0
        self.cum_weights = []
        for rank in range(1, len(self.ips) + 1):
            total += 1.0 / rank
            self.cum_weights.append(total)
        self.round_ids = round_ids

    def path(self, kind: str) -> str:
        if kind == "ip":
            (ip,) = self.rng.choices(self.ips, cum_weights=self.cum_weights)
            return f"/ip/{ip}"
        if kind == "rounds":
            return "/rounds"
        round_id = self.rng.choice(self.round_ids)
        if kind == "round":
            return f"/rounds/{round_id}"
        return f"/clusters/{round_id}?column=server"


def open_schedule(mix: PathMix, *, rate: float, duration: float,
                  seed: int) -> list[tuple[float, str, str]]:
    """``(offset, kind, path)`` for the open loop, by offset."""
    arrivals = RqsWorkload(
        mean_users=rate / RATE_PER_USER, rate_per_user=RATE_PER_USER,
        duration=duration, paths=KIND_MIX, seed=seed,
    ).schedule()
    return [(offset, kind, mix.path(kind)) for offset, kind in arrivals]


def closed_paths(mix: PathMix, count: int) -> list[tuple[str, str]]:
    """``(kind, path)`` the closed-loop clients cycle through."""
    kinds = sorted(KIND_MIX)
    weights = [KIND_MIX[kind] for kind in kinds]
    picked = mix.rng.choices(kinds, weights=weights, k=count)
    return [(kind, mix.path(kind)) for kind in picked]


@dataclass
class Sample:
    kind: str
    path: str
    scheduled: float
    started: float
    #: When a connection was free to carry it (open loop).
    free: float = 0.0
    connected: float = 0.0
    first_byte: float = 0.0
    done: float = 0.0
    #: HTTP status of a well-framed response, else None.
    status: int | None = None
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.scheduled

    @property
    def lag(self) -> float:
        return self.started - max(self.scheduled, self.free)

    @property
    def ok(self) -> bool:
        return self.status == 200


def parse_response(raw: bytes) -> tuple[int | None, bytes]:
    """``(status, body)`` of a complete, well-framed response; status
    is None when the framing is off."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not raw.startswith(b"HTTP/1.1 ") or not separator:
        return None, b""
    lines = head.split(b"\r\n")
    try:
        status = int(lines[0].split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None, b""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            if value.strip().isdigit() and int(value) == len(body):
                return status, body
            return None, b""
    return None, b""  # the server always sends Content-Length


def fetch(host: str, port: int, sample: Sample) -> None:
    """One request on one fresh connection; fills *sample* in."""
    try:
        with socket.create_connection((host, port), timeout=TIMEOUT) as conn:
            sample.connected = time.perf_counter()
            conn.sendall(
                f"GET {sample.path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n".encode("ascii")
            )
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                if not chunks:
                    sample.first_byte = time.perf_counter()
                chunks.append(chunk)
        sample.done = time.perf_counter()
        sample.status, sample.body = parse_response(b"".join(chunks))
    except OSError as exc:
        sample.done = time.perf_counter()
        sample.error = type(exc).__name__


class _InFlight:
    def __init__(self):
        self.lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def __enter__(self):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc_info):
        with self.lock:
            self.now -= 1


def _run_threads(count: int, work) -> None:
    threads = [threading.Thread(target=work) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_open(host: str, port: int, schedule, connections: int):
    """Fire *schedule* on time from *connections* threads, the first
    request now; returns the samples (in schedule order) and the peak
    in flight."""
    samples: list[Sample | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    take = threading.Lock()
    in_flight = _InFlight()
    epoch = time.perf_counter() + 0.05 - schedule[0][0]

    def work():
        while True:
            free = time.perf_counter()
            with take:
                index = next(cursor, None)
            if index is None:
                return
            offset, kind, path = schedule[index]
            due = epoch + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sample = Sample(kind, path, due, time.perf_counter(), free)
            with in_flight:
                fetch(host, port, sample)
            samples[index] = sample

    _run_threads(connections, work)
    return samples, in_flight.peak


def run_closed(host: str, port: int, paths, clients: int, duration: float,
               start: int = 0):
    """*clients* callers, each waiting for its reply before the next
    request, for *duration* seconds, cycling through *paths* from
    index *start*."""
    samples: list[Sample] = []
    cursor = iter(range(start, 10 ** 9))
    take = threading.Lock()
    deadline = time.perf_counter() + duration

    def work():
        mine = []
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            with take:
                index = next(cursor)
            kind, path = paths[index % len(paths)]
            sample = Sample(kind, path, now, now)
            fetch(host, port, sample)
            mine.append(sample)
        with take:
            samples.extend(mine)

    _run_threads(clients, work)
    return samples


def well_formed(sample: Sample) -> bool:
    """Framed as HTTP and, for a 200, carrying the JSON object the API
    promises."""
    if sample.status is None:
        return False
    if not sample.ok:
        return True
    try:
        return isinstance(json.loads(sample.body), dict)
    except ValueError:
        return False
