"""Helpers to build in-memory datasets for analysis tests."""

from __future__ import annotations

from repro.analysis.dataset import Dataset, Observation
from repro.core.records import UNKNOWN, PageFeatures
from repro.core.store import RoundInfo


def obs(
    ip: int,
    round_id: int,
    timestamp: int | None = None,
    *,
    title: str = UNKNOWN,
    template: str = UNKNOWN,
    server: str = UNKNOWN,
    keywords: str = UNKNOWN,
    analytics_id: str = UNKNOWN,
    powered_by: str = UNKNOWN,
    simhash: int = 0,
    available: bool = True,
    status_code: int | None = 200,
    port_profile: str = "80-only",
    content_type: str = "text/html",
    has_page: bool = True,
    ssh_banner: str | None = None,
) -> Observation:
    features = None
    if has_page:
        features = PageFeatures(
            title=title,
            template=template,
            server=server,
            keywords=keywords,
            analytics_id=analytics_id,
            powered_by=powered_by,
            simhash=simhash,
        )
    status_class = "200"
    if status_code is None:
        status_class = "other"
    elif 400 <= status_code < 500:
        status_class = "4xx"
    elif 500 <= status_code < 600:
        status_class = "5xx"
    return Observation(
        ip=ip,
        round_id=round_id,
        timestamp=round_id if timestamp is None else timestamp,
        port_profile=port_profile,
        available=available and status_code is not None,
        status_code=status_code,
        status_class=status_class,
        content_type=content_type,
        fetch_status="ok" if status_code is not None else "error",
        features=features,
        ssh_banner=ssh_banner,
    )


def make_dataset(observations: list[Observation],
                 targets_probed: int = 100, page_text=None) -> Dataset:
    """*page_text* maps ``(ip, round_id)`` to ``(links, domains)``."""
    seen: dict[int, int] = {}
    for observation in observations:
        seen.setdefault(observation.round_id, observation.timestamp)
    rounds = [
        RoundInfo(rid, ts, targets_probed, 0)
        for rid, ts in sorted(seen.items())
    ]
    return Dataset(rounds, observations, page_text)
