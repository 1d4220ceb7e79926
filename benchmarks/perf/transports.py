"""Transports the benchmark puts around the simulated cloud.

They live in an importable module, not in ``run.py``: a spawned
partition worker (``workers.count = 2``) unpickles
:class:`LatencySimFactory` by import path, and a factory defined in
``__main__`` would make every worker re-run the driver.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.workloads import build_sim_scenario


class _Passthrough:
    def __init__(self, inner):
        self.inner = inner

    def on_round_start(self, round_id: int) -> None:
        hook = getattr(self.inner, "on_round_start", None)
        if callable(hook):
            hook(round_id)


class LatencyTransport(_Passthrough):
    """Adds a fixed event-loop wait to every probe, GET and banner read,
    which is what makes a round wait-bound."""

    def __init__(self, inner, delay: float):
        super().__init__(inner)
        self.delay = delay

    async def probe(self, ip, port, timeout):
        await asyncio.sleep(self.delay)
        return await self.inner.probe(ip, port, timeout)

    async def banner(self, ip, port, timeout):
        await asyncio.sleep(self.delay)
        return await self.inner.banner(ip, port, timeout)

    async def get(self, ip, scheme, path, **kwargs):
        await asyncio.sleep(self.delay)
        return await self.inner.get(ip, scheme, path, **kwargs)


class TracingTransport(_Passthrough):
    """Counts calls into the simulated transport and the time spent
    inside it.  It goes *inside* the latency wrapper, so injected waits
    are not charged to the simulator: the simulator never suspends, so
    the sum is busy time."""

    def __init__(self, inner, tracer):
        super().__init__(inner)
        self.tracer = tracer

    async def _timed(self, name, call):
        begun = self.tracer.clock()
        try:
            return await call
        finally:
            self.tracer.add(name, self.tracer.clock() - begun)

    async def probe(self, ip, port, timeout):
        return await self._timed(
            "cloudsim.probe", self.inner.probe(ip, port, timeout))

    async def banner(self, ip, port, timeout):
        return await self._timed(
            "cloudsim.banner", self.inner.banner(ip, port, timeout))

    async def get(self, ip, scheme, path, **kwargs):
        return await self._timed(
            "cloudsim.get", self.inner.get(ip, scheme, path, **kwargs))


@dataclass(frozen=True)
class LatencySimFactory:
    """Picklable ``factory(timestamp) -> Transport`` for spawned
    workers: rebuild the scenario from its parameters, advance it to
    the round's day and add the same latency the coordinator saw."""

    params: dict
    latency: float

    def __call__(self, timestamp: int):
        scenario = build_sim_scenario(dict(self.params))
        scenario.simulation.advance_to(timestamp)
        return LatencyTransport(scenario.transport, self.latency)
