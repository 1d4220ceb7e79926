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
all array operations, and no pair is ever a Python object unless a
caller asks :meth:`SimhashIndex.matching_pairs` for one.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.simhash import HASH_BITS, hamming_rows, pack_hashes
from .components import groups_by_label, union_edges

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

    Build once for a population and a distance bound, then:

    - :meth:`matching_pairs` — every (i, j, distance) with
      ``distance <= threshold``, deduplicated, exactly the pairs brute
      force would accept;
    - :meth:`clusters` — the single-linkage partition at ``threshold``
      or any smaller threshold, reusing the same band tables (a pair at
      distance ≤ t ≤ threshold also agrees on one of the wider layout's
      bands, so recall carries down).

    A bucket of *s* fingerprints is s²/2 candidates, identical ones
    included: :func:`~repro.analysis.gap_statistic.cluster_by_threshold`
    collapses duplicates before it builds an index, and so should any
    other caller whose population repeats itself.
    """

    def __init__(self, hashes: Sequence[int], threshold: int, *,
                 bits: int = HASH_BITS, bands: int | None = None):
        self.hashes = list(hashes)
        self.threshold = threshold
        self.bits = bits
        self.spans = band_layout(threshold, bits=bits, bands=bands)
        self._packed = pack_hashes(self.hashes)
        self._pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def bands(self) -> int:
        return len(self.spans)

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

    def _band_candidates(self) -> Iterator[tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]]:
        """``(keys, left, right)`` per band: the band's key of every
        fingerprint and the index pairs that share one."""
        for start, width in self.spans:
            keys = self._band_keys(start, width)
            yield keys, *self._candidate_pairs(keys)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`matching_pairs` at the index's own bound, as three
        parallel arrays (computed once; do not write to them)."""
        if self._pairs is None:
            packed = self._packed
            out: list[tuple[np.ndarray, ...]] = []
            prior_keys: list[np.ndarray] = []
            for keys, left, right in self._band_candidates():
                low = np.minimum(left, right)
                high = np.maximum(left, right)
                # First-band ownership replaces a global dedup sort: a
                # pair is emitted only by the first band whose keys
                # agree, so concatenating the per-band outputs is
                # already duplicate-free (within a band the bucket triu
                # is unique by construction).
                for keys_before in prior_keys:
                    fresh = keys_before[low] != keys_before[high]
                    low, high = low[fresh], high[fresh]
                distance = hamming_rows(packed[low], packed[high])
                keep = distance <= self.threshold
                out.append((low[keep], high[keep], distance[keep]))
                prior_keys.append(keys)
            self._pairs = tuple(map(np.concatenate, zip(*out)))
        return self._pairs

    # ------------------------------------------------------------------
    # public API

    def _limit(self, threshold: int | None) -> int:
        limit = self.threshold if threshold is None else threshold
        if limit > self.threshold:
            raise ValueError(
                f"index built for distance <= {self.threshold}, "
                f"cannot answer {limit}"
            )
        return limit

    def matching_pairs(
        self, threshold: int | None = None
    ) -> tuple[list[int], list[int], list[int]]:
        """All index pairs ``(i, j)``, ``i < j``, within *threshold* bits.

        *threshold* defaults to the index's own bound and may be any
        value ≤ it (the band layout's recall guarantee covers every
        smaller distance).  Returns parallel lists (i, j, distance).
        """
        limit = self._limit(threshold)
        left, right, distance = self.pair_arrays()
        keep = distance <= limit
        return (left[keep].tolist(), right[keep].tolist(),
                distance[keep].tolist())

    def labels(self, threshold: int | None = None) -> np.ndarray:
        """Component label of every fingerprint at *threshold*: the
        smallest index of its single-linkage cluster.

        Works band by band on running labels: a candidate pair whose
        ends already share a label is dropped before the Hamming check
        (most of the later bands' candidates), the rest are confirmed
        and unioned in.
        """
        limit = self._limit(threshold)
        packed = self._packed
        labels = np.arange(len(self.hashes))
        for _, left, right in self._band_candidates():
            apart = labels[left] != labels[right]
            left, right = left[apart], right[apart]
            near = hamming_rows(packed[left], packed[right]) <= limit
            union_edges(labels, left[near], right[near])
        return labels

    def clusters(self, threshold: int | None = None) -> list[list[int]]:
        """Single-linkage partition of the population at *threshold*.

        Same contract as the brute-force
        :func:`~repro.analysis.gap_statistic.cluster_by_threshold`:
        a list of clusters, each a list of fingerprint values (duplicates
        preserved), together covering the input exactly.
        """
        return groups_by_label(self.hashes, self.labels(threshold))
