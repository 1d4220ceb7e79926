"""The connected-components kernel against a scalar oracle, its pass
count on the graphs that would expose an O(diameter) loop, and the
order contract of the two grouping helpers."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.components import (
    DisjointSets,
    groups_by_label,
    union_edges,
)


def oracle_labels(count: int, edges) -> list[int]:
    """Smallest index of every node's component, by relabelling until
    nothing moves — shares no code with either implementation."""
    labels = list(range(count))
    moved = True
    while moved:
        moved = False
        for a, b in edges:
            low = min(labels[a], labels[b])
            if labels[a] != low or labels[b] != low:
                labels[a] = labels[b] = low
                moved = True
    return labels


def union_into(labels: np.ndarray, edges) -> int:
    return union_edges(labels,
                       np.array([a for a, _ in edges], dtype=np.intp),
                       np.array([b for _, b in edges], dtype=np.intp))


@st.composite
def graphs(draw):
    """Node count (0 and 1 included) and an edge list with self-loops,
    repeats and both orientations; most nodes stay isolated when the
    list is short."""
    count = draw(st.integers(0, 40))
    if count == 0:
        return 0, []
    node = st.integers(0, count - 1)
    return count, draw(st.lists(st.tuples(node, node), max_size=80))


class TestKernel:
    @given(graphs())
    def test_labels_equal_oracle(self, graph):
        count, edges = graph
        labels = np.arange(count)
        union_into(labels, edges)
        assert labels.tolist() == oracle_labels(count, edges)

    @given(graphs(), st.integers(0, 80))
    def test_calls_chain(self, graph, cut):
        """Labels left by one call are a valid start for the next."""
        count, edges = graph
        labels = np.arange(count)
        union_into(labels, edges[:cut])
        union_into(labels, edges[cut:])
        assert labels.tolist() == oracle_labels(count, edges)

    def test_no_edges_no_passes(self):
        labels = np.arange(5)
        assert union_into(labels, []) == 0
        assert labels.tolist() == [0, 1, 2, 3, 4]


class TestPassCount:
    """Hooking plus pointer jumping must cost O(log n) passes over the
    arrays; one label step per pass would need n of them here."""

    COUNT = 100_000
    BOUND = math.ceil(math.log2(COUNT)) + 2

    def converge(self, left, right, count):
        labels = np.arange(count)
        passes = union_edges(labels, np.asarray(left), np.asarray(right))
        assert not labels.any()  # one component, labelled 0
        return passes

    def test_path(self):
        nodes = np.arange(self.COUNT)
        assert self.converge(nodes[:-1], nodes[1:], self.COUNT) <= self.BOUND
        assert self.converge(nodes[1:], nodes[:-1], self.COUNT) <= self.BOUND

    def test_star(self):
        leaves = np.arange(1, self.COUNT + 1)
        centre = np.zeros(self.COUNT, dtype=np.intp)
        assert self.converge(centre, leaves, self.COUNT + 1) <= self.BOUND
        # The centre as the largest index: it hooks first, the leaves
        # follow it a round later.
        leaves = np.arange(self.COUNT)
        centre = np.full(self.COUNT, self.COUNT)
        assert self.converge(centre, leaves, self.COUNT + 1) <= self.BOUND

    def test_shuffled_path(self):
        """Labels in no order along the path: several hook rounds, each
        with its own jumps — O(log² n), still nowhere near n."""
        nodes = list(range(self.COUNT))
        random.Random(1).shuffle(nodes)
        passes = self.converge(nodes[:-1], nodes[1:], self.COUNT)
        assert passes <= 4 * self.BOUND


class TestGrouping:
    @given(graphs())
    def test_kernel_and_scalar_groups_agree_in_order(self, graph):
        """Groups by first member, members by index — from labels and
        from the scalar sets alike."""
        count, edges = graph
        values = [f"v{index}" for index in range(count)]
        labels = oracle_labels(count, edges)
        expected: dict[int, list[str]] = {}
        for index, label in enumerate(labels):
            expected.setdefault(label, []).append(values[index])
        sets = DisjointSets(count)
        for a, b in edges:
            sets.union(a, b)
        assert sets.groups(values) == list(expected.values())
        assert groups_by_label(values, np.array(labels, dtype=np.intp)) \
            == list(expected.values())

    def test_union_hooks_first_root_under_second(self):
        """``WebpageClusterer`` uses merged roots as cluster ids, so
        which root survives a union is part of the report's output."""
        sets = DisjointSets(4)
        sets.union(0, 1)
        assert sets.find(0) == 1
        sets.union(1, 2)
        assert [sets.find(x) for x in range(4)] == [2, 2, 2, 3]
        sets.union(0, 2)  # already together: nothing moves
        assert sets.find(1) == 2
