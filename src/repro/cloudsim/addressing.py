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

    @classmethod
    def parse(cls, cidr: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        network = ipaddress.IPv4Network(cidr, strict=True)
        return cls(int(network.network_address), network.prefixlen)

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

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Yield the aligned sub-prefixes of the given (longer) length."""
        if length < self.length:
            raise ValueError(f"/{length} is shorter than /{self.length}")
        step = 1 << (32 - length)
        for base in range(self.first, self.last + 1, step):
            yield Prefix(base, length)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


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

    Supports O(log n) membership/region/prefix lookup and O(1) indexed
    access (the *k*-th address of the space), which the simulator uses to
    draw uniform addresses without materialising millions of integers.
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
                raise ValueError(f"overlapping prefixes: {prefix} and {other}")
        self._rows = rows
        self._starts = [row[0] for row in rows]
        # cumulative[i] = number of addresses in rows[:i]
        self._cumulative = [0]
        for first, last, _, _ in rows:
            self._cumulative.append(self._cumulative[-1] + (last - first + 1))

    @property
    def size(self) -> int:
        """Total number of advertised addresses."""
        return self._cumulative[-1]

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

    def address_at(self, index: int) -> int:
        """Return the *index*-th address in ascending order."""
        if not 0 <= index < self.size:
            raise IndexError(f"address index {index} out of range")
        row_index = bisect_right(self._cumulative, index) - 1
        first, _, _, _ = self._rows[row_index]
        return first + (index - self._cumulative[row_index])

    def index_of(self, address: int) -> int:
        """Inverse of :meth:`address_at`; raises KeyError if absent."""
        index = bisect_right(self._starts, address) - 1
        if index < 0 or address > self._rows[index][1]:
            raise KeyError(int_to_ip(address))
        return self._cumulative[index] + (address - self._rows[index][0])

    def addresses(self) -> Iterator[int]:
        """Yield every advertised address in ascending order."""
        for first, last, _, _ in self._rows:
            yield from range(first, last + 1)

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(name)
