"""Connected components: the union step of every single-linkage
clustering in :mod:`repro.analysis`.

Two implementations, chosen by population size and never by a flag:
:func:`union_edges`, a numpy kernel that takes edges as index arrays
and never touches one from Python, and :class:`DisjointSets`, the scalar
union-find for populations too small to repay array set-up (and for
``WebpageClusterer``'s merge step, whose edges arrive one at a time).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["DisjointSets", "groups_by_label", "union_edges"]


def union_edges(labels: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> int:
    """Merge the components joined by edges ``(left[k], right[k])``.

    *labels* is updated in place and must map every node to the smallest
    index of its component (``np.arange(n)`` to start from nothing); it
    satisfies that again on return, so calls chain.  Each round hooks
    the larger root of every edge still spanning two components onto the
    smallest root offered to it, then pointer-jumps ``labels[labels]``
    to a fixed point.  A hooked root gets a strictly smaller label, so
    rounds are finite; a root that survives a round either absorbed
    every neighbour or now borders a smaller root and is hooked next
    round, so roots at least halve every two rounds, and each jump
    halves the depth of the trees hooking built: O(log n) rounds of
    O(log n) passes over the arrays, never O(diameter).  The root that
    survives a merge is smaller than every root hooked under it, each
    the smallest index of its own component: the invariant holds.

    Returns the number of hook and jump passes made.
    """
    passes = 0
    while True:
        low, high = labels[left], labels[right]
        apart = low != high
        if not apart.any():
            return passes
        left, right = left[apart], right[apart]
        low, high = low[apart], high[apart]
        np.minimum.at(labels, np.maximum(low, high), np.minimum(low, high))
        passes += 1
        while True:
            jumped = labels[labels]
            passes += 1
            if np.array_equal(jumped, labels):
                break
            labels[:] = jumped


def groups_by_label(values: Sequence[int], labels: np.ndarray) -> list[list[int]]:
    """*values* split by their component label: groups ordered by first
    member, members in input order (what a scan over ``range(n)``
    appending to a dict of lists gives, since a label is its group's
    smallest index)."""
    order = np.argsort(labels, kind="stable")
    # Labels are indices, so -1 precedes them all: every group, the
    # first included, starts at a step (and no values means no groups).
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    bounds = [*starts.tolist(), len(order)]
    ordered = list(map(values.__getitem__, order.tolist()))
    return [ordered[begin:end] for begin, end in zip(bounds, bounds[1:])]


class DisjointSets:
    """Scalar union-find over ``range(count)`` with path halving."""

    __slots__ = ("parent",)

    def __init__(self, count: int):
        self.parent = list(range(count))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        """Hook *a*'s root under *b*'s."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_a] = root_b

    def groups(self, values: Sequence[int]) -> list[list[int]]:
        """*values* split by set: groups ordered by first member,
        members in input order."""
        groups: dict[int, list[int]] = {}
        for index, value in enumerate(values):
            groups.setdefault(self.find(index), []).append(value)
        return list(groups.values())
