"""Threshold tuning and single-linkage clustering for simhashes (§5).

The paper picks the Hamming-distance threshold of the second-level
clustering "based on the gap statistic" (Tibshirani et al. 2001).  This
reproduction stands the separation-band estimator of
:func:`select_threshold` in for it: near-duplicate corpora have a
bimodal pairwise-distance distribution, and the threshold goes into the
empty band between the modes.

Scale notes: :func:`cluster_by_threshold` dispatches between a
brute-force all-pairs path (blocked over the packed popcount kernels of
:mod:`repro.core.simhash`) and the banded LSH index of
:mod:`repro.analysis.lsh`, which generates candidate pairs in ~O(n)
with exact recall at the requested threshold.  The two paths produce
identical partitions; ``exact=True`` forces brute force,
``exact=False`` forces the index, and the default picks by population
size.  Both collapse identical fingerprints first and end in the same
connected-components kernel (:mod:`repro.analysis.components`); only a
brute-force population under ``_VECTORIZE_MIN`` stays scalar.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ..core.simhash import (
    HASH_BITS,
    hamming_cross,
    hamming_distance,
    pack_hashes,
)
from .components import DisjointSets, groups_by_label, union_edges
from .lsh import DEFAULT_EXACT_CUTOFF, SimhashIndex

__all__ = ["cluster_by_threshold", "pairwise_distances",
           "select_threshold"]

#: Brute force below this size stays scalar: kernel/packing overhead
#: beats the win on tiny populations.
_VECTORIZE_MIN = 48


def _check_threshold(threshold: int) -> None:
    if threshold < 0:
        raise ValueError("threshold must be non-negative")


def _collapse(hashes: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """The distinct fingerprints in order of first appearance, and for
    each input fingerprint its index among them.  Clustering the
    distinct ones and reading labels back through the index costs
    duplicates nothing and, because first-appearance order keeps the
    smallest index smallest, leaves cluster and member order alone."""
    unique = list(dict.fromkeys(hashes))
    position = dict(zip(unique, range(len(unique))))
    inverse = np.fromiter(map(position.__getitem__, hashes), np.intp,
                          len(hashes))
    return unique, inverse


def _cluster_exact_scalar(hashes: Sequence[int],
                          threshold: int) -> list[list[int]]:
    n = len(hashes)
    sets = DisjointSets(n)
    for i in range(n):
        for j in range(i + 1, n):
            if hamming_distance(hashes[i], hashes[j]) <= threshold:
                sets.union(i, j)
    return sets.groups(hashes)


def _exact_labels(hashes: Sequence[int], threshold: int) -> np.ndarray:
    """Component labels from a blocked all-pairs comparison on the
    packed uint64 matrix."""
    packed = pack_hashes(hashes)
    n = len(hashes)
    labels = np.arange(n)
    row_block, col_block = 512, 8192
    for i0 in range(0, n, row_block):
        rows = packed[i0:i0 + row_block]
        for j0 in range(i0, n, col_block):
            distance = hamming_cross(rows, packed[j0:j0 + col_block])
            hit_i, hit_j = np.nonzero(distance <= threshold)
            union_edges(labels, hit_i + i0, hit_j + j0)
    return labels


def cluster_by_threshold(
    hashes: Sequence[int],
    threshold: int,
    *,
    exact: bool | None = None,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
) -> list[list[int]]:
    """Single-linkage clusters: fingerprints are connected when their
    Hamming distance is ≤ *threshold*.

    *exact* selects the candidate-generation strategy: ``True`` forces
    the all-pairs scan, ``False`` forces the banded LSH index, and
    ``None`` (default) uses the index only above *exact_cutoff*
    fingerprints.  All strategies return the same clusters in the same
    order — by first member, members in input order, duplicates kept —
    the index has exact recall at ≤ *threshold* and confirms candidates
    with the same Hamming kernel.  A negative *threshold* is a
    ``ValueError`` on every strategy.
    """
    _check_threshold(threshold)
    n = len(hashes)
    if n == 0:
        return []
    if threshold >= HASH_BITS:
        # Every pair is within HASH_BITS bits: one cluster, any path.
        return [list(hashes)]
    use_index = exact is False or (exact is None and n > exact_cutoff)
    if not use_index and n < _VECTORIZE_MIN:
        return _cluster_exact_scalar(hashes, threshold)
    unique, inverse = _collapse(hashes)
    if use_index:
        labels = SimhashIndex(unique, threshold).labels()
    else:
        labels = _exact_labels(unique, threshold)
    return groups_by_label(hashes, labels[inverse])


def pairwise_distances(hashes: Sequence[int]) -> list[int]:
    """All pairwise Hamming distances among the given fingerprints,
    in ``(i, j), i < j`` row-major order."""
    n = len(hashes)
    if n >= _VECTORIZE_MIN:
        packed = pack_hashes(hashes)
        distances: list[int] = []
        for i in range(n - 1):
            row = np.bitwise_count(packed[i] ^ packed[i + 1 :]).sum(
                axis=1, dtype=np.uint32
            )
            distances.extend(row.tolist())
        return distances
    distances = []
    for i in range(n):
        for j in range(i + 1, n):
            distances.append(hamming_distance(hashes[i], hashes[j]))
    return distances


def select_threshold(
    hashes: Sequence[int],
    *,
    sample_size: int = 400,
    seed: int = 0,
    default: int = 8,
    max_threshold: int = 30,
) -> int:
    """Tune the clustering threshold from the fingerprint population.

    Near-duplicate corpora have a bimodal pairwise-distance
    distribution: revisions of one page sit a few bits apart, unrelated
    pages sit near ``HASH_BITS/2``.  The informative threshold lies in
    the *separation band* — the widest empty stretch between the two
    modes.  This estimator finds that band (on a sample, for O(n²)
    affordability) and places the threshold a third of the way in, so
    modest revision outliers are still absorbed while chaining toward
    the unrelated mode stays far away.  This plays the role of the
    paper's gap-statistic-based tuning step.

    Falls back to *default* when the population is too small or shows
    no separation (fewer than 3 distinct fingerprints, or no empty band
    below *max_threshold*).
    """
    distinct = sorted(set(hashes))
    if len(distinct) < 3:
        return default
    rng = random.Random(seed)
    if len(distinct) > sample_size:
        distinct = rng.sample(distinct, sample_size)
    distances = sorted(set(pairwise_distances(distinct)))
    if not distances:
        return default
    # Find the widest empty band between consecutive observed distances,
    # considering only bands that start below max_threshold.
    best_low, best_width = None, 0
    previous = 0
    for value in distances:
        width = value - previous
        if width > best_width and previous <= max_threshold:
            best_low, best_width = previous, width
        previous = value
    if best_low is None or best_width < 3:
        return default
    return best_low + max(1, best_width // 3)
