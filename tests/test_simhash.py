"""Unit and property tests for the 96-bit simhash (§4)."""

from __future__ import annotations

import hashlib
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simhash import (
    HASH_BITS,
    hamming_distance,
    shingles,
    simhash,
    tokenize,
)


def reference_simhash(text: str, *, shingle_width: int = 3) -> int:
    """The scalar Charikar construction, one vote per bit per distinct
    shingle — the oracle :func:`simhash` must match bit for bit.  It
    shares no code with the kernel, prelude included."""
    text = re.sub(r"<[^>]*>", " ", text)
    tokens = [match.group(0).lower()
              for match in re.finditer(r"[A-Za-z0-9]+", text)]
    if not tokens:
        return 0
    if len(tokens) < shingle_width:
        features = [" ".join(tokens)]
    else:
        features = [" ".join(tokens[start:start + shingle_width])
                    for start in range(len(tokens) - shingle_width + 1)]
    votes = [0] * HASH_BITS
    for feature, weight in Counter(features).items():
        digest = hashlib.blake2b(feature.encode("utf-8"),
                                 digest_size=12).digest()
        value = int.from_bytes(digest, "big")
        for bit in range(HASH_BITS):
            if value & (1 << bit):
                votes[bit] += weight
            else:
                votes[bit] -= weight
    return sum(1 << bit for bit in range(HASH_BITS) if votes[bit] > 0)


WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def make_text(rng: random.Random, length: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(length))


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_strips_html_tags(self):
        tokens = tokenize("<html><body>Hello</body></html>")
        assert "hello" in tokens
        assert "<html>" not in tokens

    def test_keeps_markup_when_asked(self):
        tokens = tokenize("<b>x</b>", strip_markup=False)
        assert tokens == ["b", "x", "b"]

    def test_empty(self):
        assert tokenize("") == []


class TestShingles:
    def test_width_three(self):
        assert list(shingles(["a", "b", "c", "d"], 3)) == ["a b c", "b c d"]

    def test_short_document_single_shingle(self):
        assert list(shingles(["a", "b"], 3)) == ["a b"]

    def test_empty(self):
        assert list(shingles([], 3)) == []

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            list(shingles(["a"], 0))


class TestSimhash:
    def test_deterministic(self):
        text = "the quick brown fox jumps over the lazy dog"
        assert simhash(text) == simhash(text)

    def test_within_bit_range(self):
        value = simhash("some web page content here")
        assert 0 <= value < (1 << HASH_BITS)

    def test_empty_is_zero(self):
        assert simhash("") == 0
        assert simhash("<html></html>") == 0

    def test_identical_pages_distance_zero(self):
        page = "<html><body>welcome to my site</body></html>"
        assert hamming_distance(simhash(page), simhash(page)) == 0

    def test_small_edit_small_distance(self):
        rng = random.Random(5)
        base_words = [rng.choice(WORDS) for _ in range(300)]
        edited = list(base_words)
        edited[150] = "changed"
        distance = hamming_distance(
            simhash(" ".join(base_words)), simhash(" ".join(edited))
        )
        assert distance <= 10

    def test_unrelated_pages_far_apart(self):
        rng = random.Random(9)
        distances = []
        for _ in range(10):
            a = make_text(rng, 200) + " unique-a"
            b = make_text(rng, 200) + " unique-b"
            distances.append(hamming_distance(simhash(a), simhash(b)))
        assert min(distances) > 10

    @given(st.integers(0, (1 << HASH_BITS) - 1))
    def test_hamming_identity(self, value):
        assert hamming_distance(value, value) == 0

    @given(
        st.integers(0, (1 << HASH_BITS) - 1),
        st.integers(0, (1 << HASH_BITS) - 1),
    )
    def test_hamming_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(
        st.integers(0, (1 << HASH_BITS) - 1),
        st.integers(0, (1 << HASH_BITS) - 1),
        st.integers(0, (1 << HASH_BITS) - 1),
    )
    def test_hamming_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )

    @given(
        st.integers(0, (1 << HASH_BITS) - 1),
        st.integers(0, (1 << HASH_BITS) - 1),
    )
    def test_hamming_bounded(self, a, b):
        assert 0 <= hamming_distance(a, b) <= HASH_BITS

    @settings(max_examples=25)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   min_size=0, max_size=500))
    def test_simhash_total_function(self, text):
        value = simhash(text)
        assert 0 <= value < (1 << HASH_BITS)
        assert simhash(text) == value


#: Page, shingle width, fingerprint computed by the scalar loop at the
#: commit before the numpy kernel — so kernel and oracle cannot drift
#: together.
PINNED = [
    ('<html><head><title>Welcome to nginx!</title></head><body>'
     '<h1>Welcome to nginx!</h1><p>If you see this page, the nginx web '
     'server is successfully installed and working.</p></body></html>',
     3, 0x68476DB84AED48A900399AAA),
    ("It works!", 3, 0x04DAD35ED6FE5BF13DA52A61),
    ("spam and eggs and spam and eggs and spam and eggs and ham " * 6,
     2, 0x38C18E55744671FD7FCA5ABD),
]

#: 512 KiB of all-distinct tokens: more than 50 000 distinct shingles,
#: so the vote accumulation crosses two dozen blocks.
HOSTILE_PAGE = " ".join(
    f"t{index * 2654435761 % (1 << 32):08x}" for index in range(60_000)
)[:512 * 1024]

_HTMLISH = st.lists(
    st.one_of(
        st.sampled_from(["<p>", "</p>", "<a href='/x'>", "<br/>", "<", ">",
                         "<!-- c -->", "&amp;", " ", "\n"]),
        st.sampled_from(WORDS),
        st.text(max_size=8),
    ),
    max_size=60,
).map("".join)


def assert_matches_reference(text: str, width: int) -> None:
    assert simhash(text, shingle_width=width) == \
        reference_simhash(text, shingle_width=width)


class TestKernelMatchesReference:
    """The numpy vote kernel against the scalar oracle."""

    @pytest.mark.parametrize("text,width,fingerprint", PINNED)
    def test_pinned_fingerprints(self, text, width, fingerprint):
        assert simhash(text, shingle_width=width) == fingerprint
        assert reference_simhash(text, shingle_width=width) == fingerprint

    @given(st.text(alphabet=st.characters(codec=None), max_size=200),
           st.integers(1, 5))
    def test_arbitrary_text(self, text, width):
        # codec=None admits lone surrogates, which utf-8 cannot encode.
        assert_matches_reference(text, width)

    @given(_HTMLISH, st.integers(1, 5))
    def test_htmlish(self, text, width):
        assert_matches_reference(text, width)

    @pytest.mark.parametrize("text", [
        "\u0130stanbul \u0130 I\u0307 K\u212a",  # lower() changes length
        "\ud800 lone \udfff surrogates",
        "caf\u00e9 na\u00efve \uff21\uff22",    # non-ascii letters split
        "<\u0130>x</\u0130>",
    ])
    def test_unicode_edges(self, text):
        for width in range(1, 6):
            assert_matches_reference(text, width)

    @pytest.mark.parametrize("width", range(1, 6))
    def test_shorter_than_width(self, width):
        for length in range(width + 1):
            text = " ".join(WORDS[:length])
            assert_matches_reference(text, width)

    @given(st.lists(st.sampled_from(WORDS[:3]), min_size=1, max_size=400),
           st.integers(1, 5))
    @settings(max_examples=40)
    def test_repeated_shingles_carry_weight(self, words, width):
        # A three-word vocabulary: few distinct shingles, weights >> 1.
        text = " ".join(words)
        assert_matches_reference(text, width)

    def test_tied_votes_leave_the_bit_clear(self):
        # Two distinct unigrams of weight 1: every bit they disagree on
        # sums to zero, and zero is not positive.
        a, b = simhash("alpha", shingle_width=1), simhash("beta", shingle_width=1)
        assert simhash("alpha beta", shingle_width=1) == a & b

    def test_hostile_page_blocks_time_and_memory(self):
        """512 KiB of distinct tokens: equal to the oracle across many
        accumulation blocks, in under 2 s, and under 16 MB of extra
        memory (tracemalloc sees numpy's buffers)."""
        assert len(HOSTILE_PAGE) == 512 * 1024
        assert len(set(shingles(tokenize(HOSTILE_PAGE)))) >= 50_000
        started = time.perf_counter()
        value = simhash(HOSTILE_PAGE)
        elapsed = time.perf_counter() - started
        assert value == reference_simhash(HOSTILE_PAGE)
        assert elapsed < 2.0
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            simhash(HOSTILE_PAGE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 16 * 1024 * 1024


# Edge fingerprints for the packed-kernel equivalence checks: zeros,
# all-ones, single bits at word boundaries, and half-word patterns.
EDGE_PATTERNS = [
    0,
    (1 << HASH_BITS) - 1,
    1,
    1 << 63,
    1 << 64,
    1 << (HASH_BITS - 1),
    (1 << 64) - 1,
    ((1 << 32) - 1) << 64,
    0x5555_5555_5555_5555_5555_5555,
    0xAAAA_AAAA_AAAA_AAAA_AAAA_AAAA,
]


class TestPackedKernels:
    """The numpy popcount kernels must match the scalar
    :func:`hamming_distance` bit for bit — and that against a loop over
    the bits, so the two cannot be wrong together."""

    def test_scalar_distance_matches_bit_loop(self):
        assert hamming_distance(0, (1 << HASH_BITS) - 1) == HASH_BITS
        for a in EDGE_PATTERNS:
            for b in EDGE_PATTERNS:
                assert hamming_distance(a, b) == sum(
                    (a >> bit & 1) != (b >> bit & 1)
                    for bit in range(HASH_BITS)
                )

    def test_pack_roundtrip_words(self):
        from repro.core.simhash import HASH_WORDS, pack_hashes

        packed = pack_hashes(EDGE_PATTERNS)
        assert packed.shape == (len(EDGE_PATTERNS), HASH_WORDS)
        for row, value in zip(packed, EDGE_PATTERNS):
            rebuilt = int(row[0]) | (int(row[1]) << 64)
            assert rebuilt == value

    def test_rows_kernel_on_edge_patterns(self):
        from repro.core.simhash import hamming_rows, pack_hashes

        pairs = [(a, b) for a in EDGE_PATTERNS for b in EDGE_PATTERNS]
        left = pack_hashes([a for a, _ in pairs])
        right = pack_hashes([b for _, b in pairs])
        got = hamming_rows(left, right).tolist()
        want = [hamming_distance(a, b) for a, b in pairs]
        assert got == want

    def test_cross_kernel_on_edge_patterns(self):
        from repro.core.simhash import hamming_cross, pack_hashes

        packed = pack_hashes(EDGE_PATTERNS)
        matrix = hamming_cross(packed, packed)
        for i, a in enumerate(EDGE_PATTERNS):
            for j, b in enumerate(EDGE_PATTERNS):
                assert int(matrix[i, j]) == hamming_distance(a, b)

    @given(st.lists(st.integers(0, (1 << HASH_BITS) - 1),
                    min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_rows_kernel_fuzz(self, values):
        from repro.core.simhash import hamming_rows, pack_hashes

        rotated = values[1:] + values[:1]
        got = hamming_rows(pack_hashes(values), pack_hashes(rotated)).tolist()
        want = [hamming_distance(a, b) for a, b in zip(values, rotated)]
        assert got == want

    @given(st.lists(st.integers(0, (1 << HASH_BITS) - 1),
                    min_size=1, max_size=16),
           st.lists(st.integers(0, (1 << HASH_BITS) - 1),
                    min_size=1, max_size=16))
    @settings(max_examples=25)
    def test_cross_kernel_fuzz(self, left, right):
        from repro.core.simhash import hamming_cross, pack_hashes

        matrix = hamming_cross(pack_hashes(left), pack_hashes(right))
        assert matrix.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert int(matrix[i, j]) == hamming_distance(a, b)
