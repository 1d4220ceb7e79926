"""IP pools and deployments: dynamic public-IP assignment.

IaaS public IPs are dynamic by default (§2): released when an instance
stops and reassignable to a different customer.  :class:`IpPool` models a
region's free list with O(1) random acquire/release; a
:class:`Deployment` records which service holds an IP and since when.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .providers import NetKind

__all__ = ["IpPool", "Deployment"]


@dataclass
class Deployment:
    """A service's hold on one public IP."""

    service_id: int
    ip: int
    kind: str          # NetKind.CLASSIC or NetKind.VPC
    since_day: int


class IpPool:
    """Free lists of a region's addresses, bucketed by networking kind.

    Acquisition picks a uniformly random free address (swap-pop), which
    reproduces the IP-churn property the paper studies: a released IP can
    reappear under a different owner in a later round.
    """

    def __init__(self, addresses_by_kind: dict[str, list[int]], rng: random.Random):
        self._rng = rng
        self._free: dict[str, list[int]] = {
            kind: list(addresses) for kind, addresses in addresses_by_kind.items()
        }
        self._kind_of: dict[int, str] = {}
        for kind, addresses in self._free.items():
            for address in addresses:
                self._kind_of[address] = kind

    def acquire(self, kind: str) -> int | None:
        """Take a random free address of *kind*; None if exhausted.

        A ``mixed`` request prefers classic but falls back to VPC,
        mirroring tenants that span both networking modes.
        """
        if kind == "mixed":
            for candidate in (NetKind.CLASSIC, NetKind.VPC):
                address = self.acquire(candidate)
                if address is not None:
                    return address
            return None
        free = self._free.get(kind)
        if not free:
            # Fall back to the other kind rather than failing the tenant;
            # real clouds never refuse an instance for lack of one label.
            other = NetKind.VPC if kind == NetKind.CLASSIC else NetKind.CLASSIC
            free = self._free.get(other)
            if not free:
                return None
        index = self._rng.randrange(len(free))
        free[index], free[-1] = free[-1], free[index]
        return free.pop()

    def release(self, address: int) -> None:
        """Return an address to its kind's free list."""
        kind = self._kind_of.get(address)
        if kind is None:
            raise KeyError(f"address {address} does not belong to this pool")
        self._free.setdefault(kind, []).append(address)

    def kind_of(self, address: int) -> str:
        return self._kind_of[address]
