"""IPv4 address-space modelling for cloud providers.

EC2 and Azure publish the IP ranges their services use; WhoWas is seeded
with those ranges (§4, §6).  This module provides compact representations
of provider address spaces: CIDR prefixes grouped into named regions, with
fast membership tests, prefix lookups, and deterministic enumeration.

Addresses are held as integers throughout (an ``int`` per IPv4 address);
dotted-quad strings only appear at the edges, mirroring how a scanner
working at millions of addresses must avoid per-address object overhead.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "Prefix",
    "Region",
    "AddressSpace",
]


def ip_to_int(address: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer."""
    return int(ipaddress.IPv4Address(address))


def int_to_ip(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    return str(ipaddress.IPv4Address(value))


@dataclass(frozen=True, order=True)
class Prefix:
    """A CIDR prefix: ``network`` is the integer base address."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if self.network & (self.size - 1):
            raise ValueError(
                f"network {int_to_ip(self.network)} not aligned to /{self.length}"
            )

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.first, self.last + 1))


@dataclass
class Region:
    """A named provider region owning a set of disjoint prefixes."""

    name: str
    prefixes: list[Prefix] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(p.size for p in self.prefixes)


class AddressSpace:
    """The full advertised address space of a provider.

    Supports O(log n) membership/region/prefix lookup and ascending
    enumeration without materialising millions of integers.
    """

    def __init__(self, regions: Iterable[Region]):
        self.regions = list(regions)
        rows: list[tuple[int, int, Prefix, Region]] = []
        for region in self.regions:
            for prefix in region.prefixes:
                rows.append((prefix.first, prefix.last, prefix, region))
        rows.sort(key=lambda row: row[0])
        for (_, last, prefix, _), (first, _, other, _) in zip(rows, rows[1:]):
            if first <= last:
                raise ValueError(
                    f"overlapping prefixes: {int_to_ip(prefix.first)}"
                    f"/{prefix.length} and {int_to_ip(other.first)}"
                    f"/{other.length}"
                )
        self._rows = rows
        self._starts = [row[0] for row in rows]
        #: Total number of advertised addresses.
        self.size = sum(prefix.size for _, _, prefix, _ in rows)

    def _row_for(self, address: int) -> tuple[int, int, Prefix, Region] | None:
        index = bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        row = self._rows[index]
        if address > row[1]:
            return None
        return row

    def __contains__(self, address: int) -> bool:
        return self._row_for(address) is not None

    def region_of(self, address: int) -> Region | None:
        """Return the region owning *address*, or None."""
        row = self._row_for(address)
        return row[3] if row else None

    def prefix_of(self, address: int) -> Prefix | None:
        """Return the advertised prefix containing *address*, or None."""
        row = self._row_for(address)
        return row[2] if row else None

    def addresses(self) -> Iterator[int]:
        """Yield every advertised address in ascending order."""
        for first, last, _, _ in self._rows:
            yield from range(first, last + 1)

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(name)
