"""Tests for PAA, tendency vectors, and size-change patterns (§8.1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.patterns import (
    PatternAnalyzer,
    merge_repeats,
    paa_reduce,
    pattern_label,
    size_change_pattern,
    tendency_vector,
)


class TestPaaReduce:
    def test_median_per_window(self):
        values = [1.0, 2.0, 30.0, 3.0]
        timestamps = [0, 3, 6, 8]       # two 7-day windows
        assert paa_reduce(values, timestamps, 7) == [2.0, 3.0]

    def test_uneven_windows(self):
        """Frames may contain different numbers of points (§8.1)."""
        values = [1.0, 1.0, 1.0, 5.0]
        timestamps = [0, 2, 4, 10]
        assert paa_reduce(values, timestamps, 7) == [1.0, 5.0]

    def test_empty(self):
        assert paa_reduce([], [], 7) == []

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            paa_reduce([1.0], [0, 1], 7)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            paa_reduce([1.0], [0], 0)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
    def test_output_values_within_range(self, values):
        timestamps = list(range(len(values)))
        reduced = paa_reduce(values, timestamps, 7)
        assert all(min(values) <= v <= max(values) for v in reduced)
        assert 1 <= len(reduced) <= len(values)


class TestTendencyVector:
    def test_paper_example_one(self):
        """§8.1: D' = (1,2,3,1,1,1) -> D'' = (1,1,-1,0,0)."""
        assert tendency_vector([1, 2, 3, 1, 1, 1]) == [1, 1, -1, 0, 0]

    def test_paper_example_two(self):
        """§8.1: D' = (1,10,0,5,4,2) -> D'' = (1,-1,1,-1,-1)."""
        assert tendency_vector([1, 10, 0, 5, 4, 2]) == [1, -1, 1, -1, -1]

    def test_single_value(self):
        assert tendency_vector([5]) == []


class TestMergeRepeats:
    def test_paper_example(self):
        """§8.1: (0,1,1,0,-1,-1) -> (0,1,0,-1)."""
        assert merge_repeats([0, 1, 1, 0, -1, -1]) == (0, 1, 0, -1)

    def test_empty(self):
        assert merge_repeats([]) == ()

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40))
    def test_no_consecutive_repeats(self, tendency):
        merged = merge_repeats(tendency)
        assert all(a != b for a, b in zip(merged, merged[1:]))

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40))
    def test_preserves_first_and_last(self, tendency):
        merged = merge_repeats(tendency)
        assert merged[0] == tendency[0]
        assert merged[-1] == tendency[-1]


class TestSizeChangePattern:
    def timestamps(self, count: int) -> list[int]:
        return [i * 3 for i in range(count)]

    def test_stable(self):
        values = [4.0] * 20
        assert size_change_pattern(values, self.timestamps(20)) == (0,)

    def test_step_up(self):
        values = [1.0] * 10 + [3.0] * 10
        assert size_change_pattern(values, self.timestamps(20)) == (0, 1, 0)

    def test_step_down(self):
        values = [5.0] * 10 + [2.0] * 10
        assert size_change_pattern(values, self.timestamps(20)) == (0, -1, 0)

    def test_bump(self):
        values = [1.0] * 8 + [4.0] * 6 + [1.0] * 8
        assert size_change_pattern(values, self.timestamps(22)) == (
            0, 1, 0, -1, 0,
        )

    def test_dip(self):
        """§8.1: 0,-1,1,0 is a drop immediately followed by recovery, so
        the dip must fit within one PAA window."""
        values = [4.0] * 8 + [1.0, 1.0] + [4.0] * 8
        assert size_change_pattern(values, self.timestamps(18)) == (
            0, -1, 1, 0,
        )

    def test_long_dip_has_flat_bottom(self):
        values = [4.0] * 8 + [1.0] * 6 + [4.0] * 8
        assert size_change_pattern(values, self.timestamps(22)) == (
            0, -1, 0, 1, 0,
        )

    def test_outlier_smoothed_by_median(self):
        """A single-round spike must not register as a size change."""
        values = [2.0] * 9 + [50.0] + [2.0] * 10
        assert size_change_pattern(values, self.timestamps(20)) == (0,)

    def test_short_series(self):
        assert size_change_pattern([1.0], [0]) == (0,)


class TestPatternAnalyzer:
    def test_breakdown_on_campaign(self, ec2_dataset, ec2_clustering):
        analyzer = PatternAnalyzer(ec2_dataset, ec2_clustering)
        breakdown = analyzer.breakdown()
        assert breakdown.total_clusters == len(ec2_clustering.clusters)
        assert sum(breakdown.counts.values()) == breakdown.total_clusters
        top = breakdown.top(5)
        labels = [label for label, _, _ in top]
        # Table 11: flat is the most common pattern.
        assert labels[0] == "0"
        assert breakdown.ephemeral + breakdown.stable == breakdown.counts["0"]
        # Percentages are consistent.
        for _, count, share in top:
            assert share == pytest.approx(
                count / breakdown.total_clusters * 100.0
            )

    def test_pattern_of_specific_cluster(self, ec2_dataset, ec2_clustering):
        analyzer = PatternAnalyzer(ec2_dataset, ec2_clustering)
        cid = next(iter(ec2_clustering.clusters))
        sizes, timestamps = analyzer.cluster_size_series(cid)
        pattern = size_change_pattern(
            [float(v) for v in sizes], timestamps, analyzer.window_days)
        assert all(v in (-1, 0, 1) for v in pattern)
        assert pattern_label(pattern) in analyzer.breakdown().counts
