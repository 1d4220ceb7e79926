"""Tests for IPv4 address-space modelling."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloudsim.addressing import (
    AddressSpace,
    Prefix,
    Region,
    int_to_ip,
    ip_to_int,
)


def cidr(text: str) -> Prefix:
    network, length = text.split("/")
    return Prefix(ip_to_int(network), int(length))


def region(name: str, *cidrs: str) -> Region:
    return Region(name, sorted(cidr(text) for text in cidrs))


class TestConversions:
    def test_round_trip(self):
        assert int_to_ip(ip_to_int("54.12.0.255")) == "54.12.0.255"

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPrefix:
    def test_bounds(self):
        prefix = Prefix(ip_to_int("10.0.0.0"), 24)
        assert prefix.size == 256
        assert prefix.first == ip_to_int("10.0.0.0")
        assert prefix.last == ip_to_int("10.0.0.255")

    def test_contains(self):
        prefix = cidr("192.168.1.0/24")
        space = AddressSpace([region("r", "192.168.1.0/24")])
        assert space.prefix_of(ip_to_int("192.168.1.77")) == prefix
        assert space.prefix_of(ip_to_int("192.168.2.1")) is None

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("10.0.0.1"), 24)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Prefix(0, 40)

    def test_iteration(self):
        prefix = cidr("10.0.0.0/30")
        assert list(prefix) == [prefix.first + i for i in range(4)]


def make_space() -> AddressSpace:
    return AddressSpace(
        [
            region("east", "54.0.0.0/24", "54.0.2.0/24"),
            region("west", "54.1.0.0/24"),
        ]
    )


class TestAddressSpace:
    def test_size(self):
        assert make_space().size == 768

    def test_membership(self):
        space = make_space()
        assert ip_to_int("54.0.0.5") in space
        assert ip_to_int("54.0.1.5") not in space  # gap between prefixes
        assert ip_to_int("54.1.0.200") in space

    def test_region_lookup(self):
        space = make_space()
        assert space.region_of(ip_to_int("54.0.2.9")).name == "east"
        assert space.region_of(ip_to_int("54.1.0.9")).name == "west"
        assert space.region_of(ip_to_int("9.9.9.9")) is None

    def test_prefix_lookup(self):
        space = make_space()
        prefix = space.prefix_of(ip_to_int("54.0.2.9"))
        assert prefix == cidr("54.0.2.0/24")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="10.0.0.0/23 and 10.0.1.0/24"):
            AddressSpace(
                [
                    region("a", "10.0.0.0/23"),
                    region("b", "10.0.1.0/24"),
                ]
            )

    def test_addresses_enumeration(self):
        space = make_space()
        addresses = list(space.addresses())
        assert len(addresses) == space.size
        assert addresses == sorted(addresses)

    def test_region_by_name(self):
        space = make_space()
        assert space.region("east").size == 512
        with pytest.raises(KeyError):
            space.region("north")
