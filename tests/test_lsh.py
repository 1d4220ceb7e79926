"""Property/golden tier for banded-LSH simhash clustering.

The indexed path is only allowed to exist because it is *provably*
byte-equivalent to brute force: the band layout guarantees 100% recall
for pairs within the clustering threshold (pigeonhole over
``threshold + 1`` disjoint bands), and every candidate is confirmed
with the exact Hamming kernel.  These properties pin that story:

- the index partitions like brute force for random corpora and random
  band parameters;
- ``cluster(exact=False)`` produces the identical ``ClusteringResult``
  partition as ``cluster(exact=True)`` on WhoWas-shaped datasets;
- every strategy equals :func:`oracle_clusters` — the pure-python bucket
  loop and scalar union-find the index once fell back to — in partition,
  cluster order and member order, duplicates included.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import lsh
from repro.analysis.clustering import WebpageClusterer
from repro.analysis.components import groups_by_label
from repro.analysis.gap_statistic import cluster_by_threshold
from repro.analysis.lsh import SimhashIndex, band_layout
from repro.core.simhash import HASH_BITS

from _fakes import python_calls
from _obs import make_dataset, obs

fingerprints = st.integers(0, 2**HASH_BITS - 1)


@st.composite
def corpora(draw, min_size=1, max_bases=8, max_members=5, max_flips=8):
    """Fingerprint populations with planted near-duplicate structure —
    uniform random 96-bit values almost never collide, so perturb a few
    bases to exercise the merge/chaining paths."""
    bases = draw(
        st.lists(fingerprints, min_size=min_size, max_size=max_bases)
    )
    hashes: list[int] = []
    for base in bases:
        for _ in range(draw(st.integers(1, max_members))):
            positions = draw(
                st.lists(st.integers(0, HASH_BITS - 1), max_size=max_flips,
                         unique=True)
            )
            value = base
            for position in positions:
                value ^= 1 << position
            hashes.append(value)
    return hashes


def partition(clusters):
    """Order-insensitive canonical form of a list-of-clusters."""
    return sorted(tuple(sorted(c)) for c in clusters)


def index_partition(hashes, threshold, *, bands=None):
    """The partition an index with *bands* bands finds at *threshold*."""
    index = SimhashIndex(hashes, threshold, bands=bands)
    return partition(groups_by_label(hashes, index.labels()))


def oracle_clusters(hashes, threshold, *, bits=96):
    """Single-linkage clusters by dict buckets, one popcount per bucket
    pair and a scalar union-find: clusters ordered by first member,
    members in input order.  Every strategy in ``src/`` must return
    exactly this list; it shares no code with them, band split included
    (``threshold + 1`` bands, two at least, widths differing by at most
    one bit).  Pairs are not deduplicated across bands — a repeated
    union is a no-op — so it needs no memory beyond its buckets."""
    parent = list(range(len(hashes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bands = max(threshold + 1, 2)
    base, extra = divmod(bits, bands)
    start = 0
    for band in range(bands):
        width = base + (1 if band < extra else 0)
        buckets = {}
        for index, value in enumerate(hashes):
            key = (value >> start) & ((1 << width) - 1)
            buckets.setdefault(key, []).append(index)
        start += width
        for members in buckets.values():
            for i, j in combinations(members, 2):
                if bin(hashes[i] ^ hashes[j]).count("1") <= threshold:
                    root_i, root_j = find(i), find(j)
                    if root_i != root_j:
                        parent[root_i] = root_j
    groups = {}
    for index, value in enumerate(hashes):
        groups.setdefault(find(index), []).append(value)
    return list(groups.values())


def synthetic_corpus(size, seed, *, revisions=64, max_flips=3):
    """The ``analyze`` workload's corpus (benchmarks/perf/analyze.py),
    repeated here so the suite does not import the harness: base pages,
    each seen as a run of revisions within *max_flips* bits of it."""
    rng = random.Random(seed)
    hashes = []
    while len(hashes) < size:
        base = rng.getrandbits(HASH_BITS)
        for _ in range(min(rng.randint(1, revisions), size - len(hashes))):
            value = base
            for position in rng.sample(range(HASH_BITS),
                                       rng.randint(0, max_flips)):
                value ^= 1 << position
            hashes.append(value)
    return hashes


def result_partition(result):
    """Canonical form of a ClusteringResult: member sets of the kept
    clusters, member sets of the removed clusters, and the stats row."""
    kept = frozenset(
        frozenset(c.members) for c in result.clusters.values()
    )
    removed = frozenset(
        frozenset(c.members) for c in result.removed.values()
    )
    return kept, removed, result.stats, result.threshold


class TestBandLayout:
    @given(st.integers(0, HASH_BITS - 1))
    def test_layout_partitions_the_bits(self, threshold):
        spans = band_layout(threshold)
        assert len(spans) >= threshold + 1
        covered = []
        for start, width in spans:
            assert width >= 1
            assert width <= 64  # keys must fit one machine word
            covered.extend(range(start, start + width))
        assert covered == list(range(HASH_BITS))

    @given(st.integers(0, 20), st.integers(0, 40))
    def test_extra_bands_allowed(self, threshold, extra):
        bands = min(threshold + 1 + extra, HASH_BITS)
        bands = max(bands, 2)
        spans = band_layout(threshold, bands=bands)
        assert len(spans) == bands

    def test_too_few_bands_rejected(self):
        with pytest.raises(ValueError):
            band_layout(5, bands=4)

    def test_band_wider_than_a_word_rejected(self):
        """One band of 96 bits has no 64-bit key: refused up front, not
        an ``OverflowError`` out of the key shift."""
        with pytest.raises(ValueError, match="need at least 2"):
            band_layout(0, bands=1)
        with pytest.raises(ValueError, match="wider than 64 bits"):
            SimhashIndex([1, 2, 3], 0, bands=1)
        assert len(band_layout(0, bands=2)) == 2

    def test_degenerate_threshold_rejected(self):
        with pytest.raises(ValueError):
            band_layout(HASH_BITS)


class TestRecall:
    @given(corpora(), st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_any_band_layout_partitions_like_brute_force(self, hashes,
                                                         threshold, extra):
        """For random corpora and random band parameters the index
        finds the brute-force partition: recall by the pigeonhole
        guarantee, precision by the exact confirm."""
        bands = max(min(threshold + 1 + extra, HASH_BITS), 2)
        expected = cluster_by_threshold(hashes, threshold, exact=True)
        assert index_partition(hashes, threshold, bands=bands) \
            == partition(expected)


class TestClusterEquivalence:
    @given(corpora(), st.integers(0, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_indexed_partition_equals_exact(self, hashes, threshold):
        exact = cluster_by_threshold(hashes, threshold, exact=True)
        indexed = cluster_by_threshold(hashes, threshold, exact=False)
        assert partition(exact) == partition(indexed)

    def test_auto_cutoff_switches_paths(self):
        rng = random.Random(5)
        hashes = [rng.getrandbits(HASH_BITS) for _ in range(40)]
        below = cluster_by_threshold(hashes, 4, exact=None, exact_cutoff=100)
        above = cluster_by_threshold(hashes, 4, exact=None, exact_cutoff=10)
        assert partition(below) == partition(above)


@st.composite
def datasets(draw):
    """WhoWas-shaped observation sets: few feature values (so level-1
    groups overlap), planted simhash structure, multiple rounds per IP
    (so the temporal merge heuristic fires)."""
    titles = ("shop", "blog", UNKNOWN_TITLE)
    servers = ("nginx", "apache")
    bases = draw(st.lists(fingerprints, min_size=1, max_size=4))
    observations = []
    count = draw(st.integers(2, 24))
    for index in range(count):
        base = bases[draw(st.integers(0, len(bases) - 1))]
        positions = draw(
            st.lists(st.integers(0, HASH_BITS - 1), max_size=5, unique=True)
        )
        value = base
        for position in positions:
            value ^= 1 << position
        observations.append(
            obs(
                ip=draw(st.integers(1, 6)),
                round_id=draw(st.integers(0, 3)),
                title=titles[draw(st.integers(0, 2))],
                server=servers[draw(st.integers(0, 1))],
                simhash=value,
            )
        )
    unique = {}
    for o in observations:
        unique[o.key()] = o
    return make_dataset(list(unique.values()))


UNKNOWN_TITLE = "unknown"


class TestClusteringResultEquivalence:
    """`cluster(indexed)` must produce the identical ClusteringResult
    (same cluster membership per round) as `cluster(exact=True)`."""

    @given(datasets(), st.integers(0, 8))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_result_on_random_datasets(self, dataset, threshold):
        exact = WebpageClusterer(
            level2_threshold=threshold, exact=True
        ).cluster(dataset)
        indexed = WebpageClusterer(
            level2_threshold=threshold, exact=False, exact_cutoff=0
        ).cluster(dataset)
        assert result_partition(exact) == result_partition(indexed)

    @given(datasets())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_result_with_tuned_threshold(self, dataset):
        """Equivalence also holds when the threshold itself is tuned
        from the population (both paths must tune identically)."""
        exact = WebpageClusterer(exact=True).cluster(dataset)
        indexed = WebpageClusterer(exact=False, exact_cutoff=0).cluster(dataset)
        assert exact.threshold == indexed.threshold
        assert result_partition(exact) == result_partition(indexed)


def all_strategies(hashes, threshold, **kwargs):
    """The clustering by brute force, by index and by the auto rule."""
    yield cluster_by_threshold(hashes, threshold, exact=True, **kwargs)
    yield cluster_by_threshold(hashes, threshold, exact=False, **kwargs)
    yield cluster_by_threshold(hashes, threshold, **kwargs)


class TestOracleEquivalence:
    """Equal to the oracle as lists: the same partition, clusters in the
    same order, members in the same order."""

    @given(corpora(), st.integers(0, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_every_strategy_equals_oracle(self, hashes, threshold):
        expected = oracle_clusters(hashes, threshold)
        for clusters in all_strategies(hashes, threshold):
            assert clusters == expected

    @pytest.mark.parametrize("threshold", [0, 3, 8])
    def test_shuffled_corpus_with_duplicates(self, threshold):
        """600 fingerprints, a third of them repeats, in no order: big
        enough that brute force runs blocked on arrays and the auto rule
        picks the index (and, with the cutoff raised, brute force)."""
        hashes = synthetic_corpus(400, seed=5, revisions=12)
        hashes += random.Random(6).choices(hashes, k=200)
        random.Random(7).shuffle(hashes)
        assert len(set(hashes)) < len(hashes)
        expected = oracle_clusters(hashes, threshold)
        for cutoff in (256, 10_000):
            for clusters in all_strategies(hashes, threshold,
                                           exact_cutoff=cutoff):
                assert clusters == expected

    def test_strategies_equal_oracle_on_planted_pairs(self):
        rng = random.Random(11)
        hashes = []
        for _ in range(120):
            base = rng.getrandbits(HASH_BITS)
            hashes.append(base)
            hashes.append(base ^ (1 << rng.randrange(HASH_BITS)))
        expected = oracle_clusters(hashes, 4)
        assert len(expected) == 120
        for clusters in all_strategies(hashes, 4):
            assert clusters == expected

    def test_full_clusterer_equals_oracle(self):
        """One level-1 group, no IP seen twice with a near page: the
        final clusters are the oracle's, as ``<IP, round>`` sets."""
        rng = random.Random(12)
        observations = []
        for index in range(40):
            base = rng.getrandbits(HASH_BITS)
            observations.append(
                obs(index, 0, title="site", server="nginx", simhash=base)
            )
            observations.append(
                obs(index + 40, 1, title="site", server="nginx",
                    simhash=base ^ (1 << rng.randrange(HASH_BITS)))
            )
        dataset = make_dataset(observations)
        by_hash = {o.features.simhash: o.key() for o in observations}
        expected = frozenset(
            frozenset(by_hash[value] for value in members)
            for members in oracle_clusters(sorted(by_hash), 3)
        )
        assert len(expected) == 40
        for kwargs in ({"exact": True}, {"exact": False, "exact_cutoff": 0},
                       {}):
            result = WebpageClusterer(level2_threshold=3, **kwargs).cluster(
                dataset)
            assert not result.removed
            assert frozenset(
                frozenset(c.members) for c in result.clusters.values()
            ) == expected


def traced_peak(fn):
    """The most memory *fn* held at once, in bytes."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestIdenticalFingerprints:
    """Default server pages: thousands of copies of one fingerprint.
    One bucket of 8 000 was 32 M candidate pairs in every band."""

    def corpus(self):
        rng = random.Random(3)
        repeated = rng.getrandbits(HASH_BITS)
        return repeated, [repeated] * 8000 + [
            rng.getrandbits(HASH_BITS) for _ in range(1000)
        ]

    def test_copies_cost_nothing(self):
        repeated, hashes = self.corpus()
        started = time.perf_counter()
        clusters = cluster_by_threshold(hashes, 4, exact=False)
        elapsed = time.perf_counter() - started
        assert len(clusters) == 1001
        assert clusters[0] == [repeated] * 8000
        assert [c[0] for c in clusters[1:]] == hashes[8000:]
        assert elapsed < 1.0
        peak = traced_peak(
            lambda: cluster_by_threshold(hashes, 4, exact=False))
        assert peak < 32 * 1024 * 1024


class TestAdversarialBuckets:
    """Distinct fingerprints that crowd one bucket, which the collapse
    cannot thin out.  The pair-level index spent s²/2 candidates on a
    bucket of s: 3 000 near revisions took 0.66 s and 109 MB, 3 000
    far-apart band-mates 0.66–0.69 s and 288 MB."""

    def test_near_revisions_join_in_one_pass(self):
        """8 000 revisions, each three bits from one base page, so
        pairwise within 6 bits: 32 M pairs, now one leader pass."""
        rng = random.Random(13)
        base = rng.getrandbits(HASH_BITS)
        revisions = {}
        while len(revisions) < 8000:
            value = base
            for position in rng.sample(range(HASH_BITS), 3):
                value ^= 1 << position
            revisions[value] = None
        hashes = list(revisions)
        started = time.perf_counter()
        clusters = cluster_by_threshold(hashes, 6, exact=False)
        elapsed = time.perf_counter() - started
        assert clusters == [hashes]
        assert elapsed < 0.5
        peak = traced_peak(
            lambda: cluster_by_threshold(hashes, 6, exact=False))
        assert peak < 16 * 1024 * 1024

    def test_far_band_mates_stay_apart_in_bounded_memory(self):
        """3 000 fingerprints equal on the first band and random on the
        rest: no pair is within the threshold, so every pair is checked,
        but in blocks of ``_PAIR_BLOCK``."""
        rng = random.Random(17)
        start, width = band_layout(4)[0]
        mask = ((1 << width) - 1) << start
        shared = rng.getrandbits(HASH_BITS) & mask
        hashes = [(rng.getrandbits(HASH_BITS) & ~mask) | shared
                  for _ in range(3000)]
        started = time.perf_counter()
        clusters = cluster_by_threshold(hashes, 4, exact=False)
        elapsed = time.perf_counter() - started
        assert clusters == [[value] for value in hashes]
        assert elapsed < 2.0
        peak = traced_peak(
            lambda: cluster_by_threshold(hashes, 4, exact=False))
        assert peak < 32 * 1024 * 1024


class TestNegativeThreshold:
    """One meaning on every strategy: not a threshold."""

    @pytest.mark.parametrize("exact", [True, False, None])
    @pytest.mark.parametrize("hashes", [[5, 5, 7], [], list(range(300))])
    def test_rejected_everywhere(self, exact, hashes):
        with pytest.raises(ValueError, match="threshold must be non-negative"):
            cluster_by_threshold(hashes, -1, exact=exact)


class TestPythonCallsPerFingerprint:
    """A work proxy this host's timing noise cannot blur: the union used
    to be two Python ``find`` calls per matching pair (39 calls per
    fingerprint on this corpus), then ``pack_hashes``' two generator
    passes over the distinct fingerprints (1.8).  What is left is a
    constant per band and per pair block: 413 calls on this corpus."""

    def test_no_python_loop_per_pair(self):
        hashes = synthetic_corpus(20_000, seed=7)
        calls, clusters = python_calls(
            lambda: cluster_by_threshold(hashes, 4, exact=False))
        assert sum(map(len, clusters)) == len(hashes)
        assert calls < 0.023 * len(hashes)


class TestWorkPerFingerprint:
    """The index's work on the ``analyze`` corpus, counted, not timed.
    Enumerating every pair of every bucket generated 26.5 candidate
    pairs and Hamming-checked 9.19 rows per fingerprint; the bucket
    prune and the leader pass read 3.42 and 2.80."""

    def test_bucket_prune_bounds_pairs_and_checks(self, monkeypatch):
        hashes = synthetic_corpus(20_000, seed=7)
        work = {"pairs": 0, "rows": 0}
        confirm, rows = SimhashIndex._confirm, lsh.hamming_rows

        def counted_confirm(self, labels, left, right):
            work["pairs"] += len(left)
            confirm(self, labels, left, right)

        def counted_rows(packed_a, packed_b):
            work["rows"] += len(packed_a)
            return rows(packed_a, packed_b)

        monkeypatch.setattr(SimhashIndex, "_confirm", counted_confirm)
        monkeypatch.setattr(lsh, "hamming_rows", counted_rows)
        clusters = cluster_by_threshold(hashes, 4, exact=False)
        assert sum(map(len, clusters)) == len(hashes)
        assert work["pairs"] < 3.77 * len(hashes)
        assert work["rows"] < 3.08 * len(hashes)


@pytest.mark.slow
class TestAtScale:
    """Paper-scale corpora: too slow for tier-1, nightly runs them."""

    def test_equivalence_on_large_corpus(self):
        rng = random.Random(99)
        hashes = []
        while len(hashes) < 6000:
            base = rng.getrandbits(HASH_BITS)
            for _ in range(rng.randint(1, 4)):
                value = base
                for position in rng.sample(range(HASH_BITS),
                                           rng.randint(0, 4)):
                    value ^= 1 << position
                hashes.append(value)
        for threshold in (2, 4, 8):
            exact = cluster_by_threshold(hashes, threshold, exact=True)
            indexed = cluster_by_threshold(hashes, threshold, exact=False)
            assert partition(exact) == partition(indexed)

    def test_paper_scale_corpus_equals_oracle(self):
        """400 000 fingerprints through the index: the oracle's list,
        cluster for cluster and member for member."""
        hashes = synthetic_corpus(400_000, seed=7)
        assert cluster_by_threshold(hashes, 4, exact=False) \
            == oracle_clusters(hashes, 4)

    @given(corpora(max_bases=30, max_members=8), st.integers(0, 16))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_recall_extended_matrix(self, hashes, threshold):
        expected = cluster_by_threshold(hashes, threshold, exact=True)
        assert index_partition(hashes, threshold) == partition(expected)
