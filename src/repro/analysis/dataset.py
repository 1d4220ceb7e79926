"""In-memory view of a WhoWas measurement campaign.

Analyses repeatedly traverse every ``<IP, round>`` record, so this
module loads a :class:`~repro.core.store.StoreBackend` (any engine —
sqlite or columnar) once into compact :class:`Observation` rows and
indexes them by round and by IP.  The load is one projection scan
(:meth:`~repro.core.store.StoreBackend.columns`) of the columns an
observation is made of; no row is decoded into a ``RoundRecord`` and no
page body is parsed.  The text mined from bodies — outgoing links and
leaked domain names, which only the Safe Browsing and DNS-correlation
analyses read — is :attr:`Dataset.page_text`, computed by a second scan
the first time one of them asks for it, once per distinct body.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple

from ..core.features import extract_domains, extract_links
from ..core.records import (
    PageFeatures,
    is_available,
    parse_open_ports,
    port_profile_of,
    status_class_of,
)
from ..core.store import RoundInfo, StoreBackend

__all__ = ["Observation", "Dataset", "PageText"]

#: What one page body mentions: ``(links, domains)`` — the absolute
#: http(s) URLs it links to and the domain names appearing in it
#: (vhost leakage, §4).
PageText = tuple[tuple[str, ...], tuple[str, ...]]

#: The columns an :class:`Observation` is made of.  ``body_digest``
#: stands in for the body, which ``RoundRecord.from_row`` treats as the
#: authoritative marker of whether a row carries features: it is None
#: exactly when the body is, and reading it reads no body text.
_OBSERVATION_COLUMNS = (
    "ip", "round_id", "timestamp", "open_ports", "fetch_status",
    "status_code", "content_type", "ssh_banner", "body_digest",
    "powered_by", "description", "header_string", "html_length", "title",
    "template", "server", "keywords", "analytics_id", "simhash",
)


class Observation(NamedTuple):
    """One responsive ``<IP, round>`` pair, with extracted features.

    A named tuple: immutable, equal and hashed by value, and without a
    per-instance ``__dict__`` -- a campaign loads one per stored row."""

    ip: int
    round_id: int
    timestamp: int
    port_profile: str          # Table 3 label: "22-only", "80-only", ...
    available: bool
    status_code: int | None
    status_class: str          # "200", "4xx", "5xx", "other"
    content_type: str
    fetch_status: str
    features: PageFeatures | None
    ssh_banner: str | None = None

    @property
    def has_page(self) -> bool:
        """Whether this observation carries clusterable page content."""
        return self.features is not None

    def key(self) -> tuple[int, int]:
        return (self.ip, self.round_id)


#: ``Observation`` from a tuple of all its fields, as
#: ``Observation._make`` builds it but without a Python frame per row.
_observation_of = partial(tuple.__new__, Observation)


class Dataset:
    """All rounds of one campaign, indexed for analysis."""

    def __init__(self, rounds: list[RoundInfo],
                 observations: list[Observation],
                 page_text: Mapping[tuple[int, int], PageText] | None = None):
        #: Hand-built datasets pass their page text; :meth:`from_store`
        #: leaves it to be read from ``_store`` on first use.
        self._page_text = page_text
        self._store: StoreBackend | None = None
        self.rounds = sorted(rounds, key=lambda r: r.timestamp)
        self.round_ids = [r.round_id for r in self.rounds]
        self._timestamps = {r.round_id: r.timestamp for r in self.rounds}
        self.by_round: dict[int, list[Observation]] = {
            r.round_id: [] for r in self.rounds
        }
        self.by_ip: dict[int, list[Observation]] = {}
        for obs in observations:
            self.by_round[obs.round_id].append(obs)
            self.by_ip.setdefault(obs.ip, []).append(obs)
        by_time = attrgetter("timestamp")
        for history in self.by_ip.values():
            history.sort(key=by_time)

    @classmethod
    def from_store(cls, store: StoreBackend) -> "Dataset":
        """Load every round of *store*.  Within the load each distinct
        value is built once and shared by every row that repeats it:
        rows whose ten feature columns are all equal share one
        :class:`PageFeatures` (the key is the whole feature tuple, never
        the body digest, so a quarantined row's sentinel features stay
        apart from a clean row with the same body), and every label
        string is one object per distinct value."""
        rounds = store.rounds()
        profiles: dict[str, str] = {}          # open_ports column -> label
        classes: dict[int | None, str] = {}    # status code -> label
        availability: dict[tuple[str, int | None], bool] = {}
        labels: dict[str | None, str | None] = {}
        pages: dict[tuple, PageFeatures] = {}  # feature columns -> features
        observations = []
        for info in rounds:
            for row in store.columns(info.round_id, _OBSERVATION_COLUMNS):
                (ip, round_id, timestamp, open_ports, fetch_status,
                 status_code, content_type, ssh_banner, digest) = row[:9]
                port_profile = profiles.get(open_ports)
                if port_profile is None:
                    port_profile = profiles[open_ports] = port_profile_of(
                        parse_open_ports(open_ports)
                    )
                status_class = classes.get(status_code)
                if status_class is None:
                    status_class = classes[status_code] = status_class_of(
                        status_code
                    )
                available = availability.get((fetch_status, status_code))
                if available is None:
                    available = availability[fetch_status, status_code] = (
                        is_available(fetch_status, status_code)
                    )
                features = None
                if digest is not None:
                    key = row[9:]
                    features = pages.get(key)
                    if features is None:
                        *columns, simhash = key
                        features = pages[key] = PageFeatures(
                            *columns, int(simhash, 16)
                        )
                observations.append(_observation_of((
                    ip, round_id, timestamp, port_profile, available,
                    status_code, status_class,
                    labels.setdefault(content_type, content_type),
                    labels.setdefault(fetch_status, fetch_status),
                    features, labels.setdefault(ssh_banner, ssh_banner),
                )))
        dataset = cls(rounds, observations)
        dataset._store = store
        return dataset

    @property
    def page_text(self) -> Mapping[tuple[int, int], PageText]:
        """``(ip, round_id) -> (links, domains)`` for every observation
        that carries a page.  A dataset loaded from a store parses the
        stored bodies the first time this is read, so the store must
        still be readable then: a closed sqlite handle raises, it does
        not pass for "no links".  Each distinct body is parsed once,
        however many rows store it."""
        if self._page_text is None:
            self._page_text = (
                {} if self._store is None else self._read_page_text()
            )
        return self._page_text

    def _read_page_text(self) -> dict[tuple[int, int], PageText]:
        page_text: dict[tuple[int, int], PageText] = {}
        parsed: dict[bytes, PageText] = {}      # body digest -> text
        for info in self.rounds:
            for ip, digest, body in self._store.columns(
                info.round_id, ("ip", "body_digest", "body")
            ):
                if body is None:    # no page, or its body is missing
                    continue
                text = parsed.get(digest)
                if text is None:
                    text = parsed[digest] = (
                        tuple(extract_links(body)),
                        tuple(extract_domains(body)),
                    )
                page_text[ip, info.round_id] = text
        return page_text

    # ------------------------------------------------------------------

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def timestamp_of(self, round_id: int) -> int:
        return self._timestamps[round_id]

    def observations(self) -> Iterator[Observation]:
        """Every observation, in round order."""
        for round_id in self.round_ids:
            yield from self.by_round[round_id]

    def history(self, ip: int) -> list[Observation]:
        """All observations of one IP, in chronological order."""
        return self.by_ip.get(ip, [])

    def targets_probed(self, round_id: int) -> int:
        for info in self.rounds:
            if info.round_id == round_id:
                return info.targets_probed
        raise KeyError(round_id)
