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

**Bucket work.**  Bands run in turn against running component labels,
so a bucket's cost follows its components, not its pairs.  A bucket
whose members already share one label costs nothing.  The rest check
each of their *s* members against the first in s − 1 checks, and pair
only the members still outside that first member's component, in
blocks of :data:`_PAIR_BLOCK`: a run of near-duplicate revisions is
one linear pass, and only a bucket whose members stay apart costs up
to s²/2 checks, in bounded memory.  A label is its component's
smallest index, so any edge set that connects the same components
gives the same labels.

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

#: Candidate pairs generated and checked per numpy call: bounds the
#: temporaries of a bucket with many components to a few MB however
#: large the bucket is.
_PAIR_BLOCK = 1 << 16


def band_layout(threshold: int, *, bits: int = HASH_BITS,
                bands: int | None = None) -> list[tuple[int, int]]:
    """``(start, width)`` spans of the index bands for *threshold*.

    Defaults to the minimal exact-recall layout of ``threshold + 1``
    bands (at least ``ceil(bits / 64)`` so every band key fits one
    machine word); *bands* may request more (narrower bands trade
    precision for cheaper keys) but never fewer than either minimum,
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
    word_bands = (bits + 63) // 64
    if bands is None:
        bands = max(required, word_bands)
    if bands < required:
        raise ValueError(
            f"{bands} bands cannot guarantee recall at distance "
            f"{threshold}; need at least {required}"
        )
    if bands < word_bands:
        raise ValueError(
            f"{bands} bands leave a band wider than 64 bits; "
            f"need at least {word_bands}"
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

    A bucket of *s* fingerprints that form one component, identical
    ones included, costs s − 1 checks; only one whose members stay
    apart costs up to s²/2, in blocks of :data:`_PAIR_BLOCK` pairs.
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

    def _confirm(self, labels: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> None:
        """Union the candidate pairs ``(left[k], right[k])`` that are
        within the threshold; a pair whose ends already share a label is
        dropped before the Hamming check."""
        apart = labels[left] != labels[right]
        left, right = left[apart], right[apart]
        packed = self._packed
        near = hamming_rows(packed[left], packed[right]) <= self.threshold
        union_edges(labels, left[near], right[near])

    def _join_band(self, labels: np.ndarray, keys: np.ndarray) -> None:
        """Union every within-threshold pair whose band *keys* agree.

        Buckets are runs of equal keys in a stable ``argsort``.  A bucket
        whose members already carry one label is skipped whole.  In the
        rest each member is checked against the bucket's first member,
        its *leader*.  Then the other members still outside the leader's
        label are moved to the front of their bucket, and each is paired
        with every non-leader after it: every pair with an outsider and
        without the leader comes up once, and no pair of insiders does.
        """
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.flatnonzero(
            np.concatenate(([True], ordered[1:] != ordered[:-1])))
        sizes = np.diff(np.append(starts, order.shape[0]))
        ranked = labels[order]
        mixed = (np.minimum.reduceat(ranked, starts)
                 != np.maximum.reduceat(ranked, starts))
        if not mixed.any():
            return
        members = order[np.repeat(mixed, sizes)]
        sizes = sizes[mixed]
        leaders = order[np.repeat(starts[mixed], sizes)]
        follows = members != leaders
        members, leaders, sizes = members[follows], leaders[follows], sizes - 1
        self._confirm(labels, members, leaders)

        outside = labels[members] != labels[leaders]
        if not outside.any():
            return
        bucket = np.repeat(np.arange(sizes.shape[0]), sizes)
        lineup = np.lexsort((~outside, bucket))
        members, outside = members[lineup], outside[lineup]
        ends = np.repeat(np.cumsum(sizes), sizes)
        outsiders = np.flatnonzero(outside)
        counts = ends[outsiders] - outsiders - 1
        reach = np.cumsum(counts)
        total = int(reach[-1])
        for low in range(0, total, _PAIR_BLOCK):
            step = np.arange(low, min(low + _PAIR_BLOCK, total))
            owner = np.searchsorted(reach, step, side="right")
            source = outsiders[owner]
            partner = source + 1 + step - (reach[owner] - counts[owner])
            self._confirm(labels, members[source], members[partner])

    # ------------------------------------------------------------------
    # public API

    def labels(self) -> np.ndarray:
        """Component label of every fingerprint at the index's
        threshold: the smallest index of its single-linkage cluster.

        Works band by band on running labels, so a bucket that earlier
        bands already joined into one component is skipped whole.
        """
        labels = np.arange(len(self.hashes))
        if labels.shape[0] > 1:
            for start, width in self.spans:
                self._join_band(labels, self._band_keys(start, width))
        return labels
