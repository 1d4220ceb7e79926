"""Banded locality-sensitive indexing over 96-bit simhashes.

The §5 second-level clustering connects fingerprints within a small
Hamming distance.  Done pairwise that is O(n²) — the next asymptotic
wall once rounds scale past ~10^5 records.  This module generates
candidate pairs in roughly O(n) with the classic *banded* simhash trick
(Manku et al., WWW'07):

**Band math.**  Split the ``HASH_BITS``-bit fingerprint into
``threshold + 1`` contiguous, disjoint bands.  Two fingerprints within
Hamming distance ``threshold`` differ in at most ``threshold`` bit
positions, which can touch at most ``threshold`` bands — so by
pigeonhole they agree *exactly* on at least one band.  Indexing every
fingerprint under each band's key therefore has **100% recall**: every
true pair collides in at least one band bucket.  Candidates are then
confirmed with an exact (vectorized) Hamming check, so the resulting
clustering is byte-identical to the brute-force path — the banding only
ever adds false *candidates*, never loses true pairs.

Precision degrades as ``threshold`` grows (narrower bands mean more
accidental collisions), which is fine in WhoWas's regime: the paper
merges at 3 bits and the tuned second-level thresholds stay in the
single digits, giving band widths of 12+ bits.

The index runs on the packed-uint64 numpy kernels from
:mod:`repro.core.simhash`; band keys, buckets, candidates, the Hamming
check and the union (:func:`repro.analysis.components.union_edges`) are
all array operations, and no pair is ever a Python object.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.simhash import HASH_BITS, hamming_rows, pack_hashes
from .components import union_edges

__all__ = [
    "DEFAULT_EXACT_CUTOFF",
    "SimhashIndex",
    "band_layout",
]

#: Below this population size brute force beats index construction;
#: ``cluster_by_threshold``'s auto mode switches paths here.
DEFAULT_EXACT_CUTOFF = 256


def band_layout(threshold: int, *, bits: int = HASH_BITS,
                bands: int | None = None) -> list[tuple[int, int]]:
    """``(start, width)`` spans of the index bands for *threshold*.

    Defaults to the minimal exact-recall layout of ``threshold + 1``
    bands (at least ``ceil(bits / 64)`` so every band key fits one
    machine word); *bands* may request more (narrower bands trade
    precision for cheaper keys) but never fewer than ``threshold + 1``,
    and never more than *bits*.  Extra bands never lose recall — the
    pigeonhole argument only needs *at least* ``threshold + 1``.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if threshold >= bits:
        raise ValueError(
            f"threshold {threshold} >= {bits} bits connects every pair; "
            "index callers must shortcut that case"
        )
    required = threshold + 1
    if bands is None:
        bands = max(required, (bits + 63) // 64)
    if bands < required:
        raise ValueError(
            f"{bands} bands cannot guarantee recall at distance "
            f"{threshold}; need at least {required}"
        )
    if bands > bits:
        raise ValueError(f"cannot cut {bits} bits into {bands} bands")
    base, extra = divmod(bits, bands)
    spans = []
    start = 0
    for index in range(bands):
        width = base + (1 if index < extra else 0)
        spans.append((start, width))
        start += width
    return spans


class SimhashIndex:
    """Banded LSH index over a fingerprint population.

    Build once for a population and a distance bound, then ask
    :meth:`labels` for the single-linkage partition at that bound —
    exactly the partition brute force finds.

    A bucket of *s* fingerprints is s²/2 candidates, identical ones
    included: :func:`~repro.analysis.gap_statistic.cluster_by_threshold`
    collapses duplicates before it builds an index, and so should any
    other caller whose population repeats itself.
    """

    def __init__(self, hashes: Sequence[int], threshold: int, *,
                 bits: int = HASH_BITS, bands: int | None = None):
        self.hashes = list(hashes)
        self.threshold = threshold
        self.spans = band_layout(threshold, bits=bits, bands=bands)
        self._packed = pack_hashes(self.hashes)

    # ------------------------------------------------------------------
    # candidate generation

    def _band_keys(self, start: int, width: int) -> np.ndarray:
        """Vectorized ``(hash >> start) & mask`` over the packed matrix."""
        packed = self._packed
        mask = np.uint64((1 << width) - 1)
        if start >= 64:
            keys = packed[:, 1] >> np.uint64(start - 64)
        elif start + width <= 64:
            keys = packed[:, 0] >> np.uint64(start)
        else:  # band straddles the word boundary
            keys = (packed[:, 0] >> np.uint64(start)) | (
                packed[:, 1] << np.uint64(64 - start)
            )
        return keys & mask

    @staticmethod
    def _candidate_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i_array, j_array) of bucket-mate index pairs for one band.

        Buckets are runs of equal keys in argsort order; same-size runs
        are gathered into one (runs, size) matrix so ``triu_indices``
        runs once per distinct bucket size, not once per bucket.
        """
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        boundaries = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        sizes = np.diff(np.concatenate((starts, [order.shape[0]])))
        lefts = [np.empty(0, dtype=order.dtype)]
        rights = [np.empty(0, dtype=order.dtype)]
        for size in np.unique(sizes):
            if size < 2:
                continue
            block = order[starts[sizes == size][:, None] + np.arange(size)]
            local_i, local_j = np.triu_indices(int(size), k=1)
            lefts.append(block[:, local_i].ravel())
            rights.append(block[:, local_j].ravel())
        return np.concatenate(lefts), np.concatenate(rights)

    # ------------------------------------------------------------------
    # public API

    def labels(self) -> np.ndarray:
        """Component label of every fingerprint at the index's
        threshold: the smallest index of its single-linkage cluster.

        Works band by band on running labels: a candidate pair whose
        ends already share a label is dropped before the Hamming check
        (most of the later bands' candidates), the rest are confirmed
        and unioned in.
        """
        packed = self._packed
        labels = np.arange(len(self.hashes))
        for start, width in self.spans:
            left, right = self._candidate_pairs(self._band_keys(start, width))
            apart = labels[left] != labels[right]
            left, right = left[apart], right[apart]
            near = hamming_rows(packed[left], packed[right]) <= self.threshold
            union_edges(labels, left[near], right[near])
        return labels
