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


def region(name: str, *cidrs: str) -> Region:
    return Region(name, sorted(Prefix.parse(cidr) for cidr in cidrs))


class TestConversions:
    def test_round_trip(self):
        assert int_to_ip(ip_to_int("54.12.0.255")) == "54.12.0.255"

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.size == 256
        assert prefix.first == ip_to_int("10.0.0.0")
        assert prefix.last == ip_to_int("10.0.0.255")

    def test_contains(self):
        prefix = Prefix.parse("192.168.1.0/24")
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
        prefix = Prefix.parse("10.0.0.0/30")
        assert list(prefix) == [prefix.first + i for i in range(4)]

    def test_subprefixes(self):
        prefix = Prefix.parse("10.0.0.0/22")
        subs = list(prefix.subprefixes(24))
        assert len(subs) == 4
        assert all(s.length == 24 for s in subs)
        assert subs[0].first == prefix.first
        assert subs[-1].last == prefix.last

    def test_subprefixes_shorter_rejected(self):
        with pytest.raises(ValueError):
            list(Prefix.parse("10.0.0.0/24").subprefixes(22))

    def test_str(self):
        assert str(Prefix.parse("10.1.0.0/16")) == "10.1.0.0/16"


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
        assert prefix is not None
        assert str(prefix) == "54.0.2.0/24"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(
                [
                    region("a", "10.0.0.0/23"),
                    region("b", "10.0.1.0/24"),
                ]
            )

    def test_address_at_and_index_of_inverse(self):
        space = make_space()
        for index in (0, 1, 255, 256, 500, 767):
            assert space.index_of(space.address_at(index)) == index

    def test_address_at_out_of_range(self):
        with pytest.raises(IndexError):
            make_space().address_at(768)

    def test_index_of_absent(self):
        with pytest.raises(KeyError):
            make_space().index_of(ip_to_int("54.0.1.0"))

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

    @given(st.integers(0, 767))
    def test_indexed_access_in_space(self, index):
        space = make_space()
        assert space.address_at(index) in space
