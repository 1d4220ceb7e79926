"""Tests for threshold tuning and single-linkage clustering helpers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.gap_statistic import (
    cluster_by_threshold,
    pairwise_distances,
    select_threshold,
)
from repro.core.simhash import HASH_BITS, hamming_distance


def near(base: int, bits: int, rng: random.Random) -> int:
    value = base
    for position in rng.sample(range(HASH_BITS), bits):
        value ^= 1 << position
    return value


class TestClusterByThreshold:
    def test_exact_duplicates_grouped(self):
        clusters = cluster_by_threshold([5, 5, 9], 0)
        assert sorted(len(c) for c in clusters) == [1, 2]

    def test_transitive_chaining(self):
        """Single linkage: a-b close, b-c close => one cluster."""
        a = 0
        b = 0b11          # distance 2 from a
        c = 0b1111        # distance 2 from b, 4 from a
        clusters = cluster_by_threshold([a, b, c], 2)
        assert len(clusters) == 1

    def test_threshold_zero_splits_distinct(self):
        clusters = cluster_by_threshold([0, 1, 3], 0)
        assert len(clusters) == 3

    @given(st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=20),
           st.integers(0, 96))
    @settings(max_examples=30)
    def test_partition_property(self, hashes, threshold):
        clusters = cluster_by_threshold(hashes, threshold)
        flattened = sorted(v for cluster in clusters for v in cluster)
        assert flattened == sorted(hashes)

    @given(st.lists(st.integers(0, 2**96 - 1), min_size=2, max_size=15))
    @settings(max_examples=30)
    def test_threshold_monotonicity(self, hashes):
        """A larger threshold never produces more clusters."""
        small = len(cluster_by_threshold(hashes, 4))
        large = len(cluster_by_threshold(hashes, 48))
        assert large <= small

    def test_full_threshold_single_cluster(self):
        rng = random.Random(0)
        hashes = [rng.getrandbits(96) for _ in range(10)]
        assert len(cluster_by_threshold(hashes, 96)) == 1


class TestPairwiseDistances:
    def test_counts(self):
        assert len(pairwise_distances([1, 2, 3, 4])) == 6

    def test_values(self):
        assert pairwise_distances([0b11, 0b01]) == [1]

    def test_hamming_sanity(self):
        assert hamming_distance(0, 0b111) == 3


class TestSelectThreshold:
    def test_bimodal_population(self):
        """Revision-vs-unrelated bimodality must land the threshold in
        the separation band."""
        rng = random.Random(2)
        hashes = []
        for _ in range(20):
            base = rng.getrandbits(96)
            hashes.append(base)
            hashes.append(near(base, rng.randint(1, 5), rng))
        threshold = select_threshold(hashes, seed=1)
        assert 5 <= threshold <= 35

    def test_tiny_population_default(self):
        assert select_threshold([1, 2], default=8) == 8
        assert select_threshold([], default=6) == 6

    def test_identical_hashes_default(self):
        assert select_threshold([7, 7, 7, 7], default=8) == 8

    def test_deterministic(self):
        rng = random.Random(3)
        hashes = [rng.getrandbits(96) for _ in range(100)]
        assert select_threshold(hashes, seed=5) == select_threshold(
            hashes, seed=5
        )
