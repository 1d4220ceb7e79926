"""96-bit simhash fingerprints for near-duplicate webpage detection.

WhoWas (§4) computes a simhash over the HTML of every fetched page and
clusters pages whose fingerprints are within a small Hamming distance.
This module implements the Charikar simhash construction used there:

1. tokenize the document into features (word shingles),
2. hash every feature to a ``HASH_BITS``-bit value,
3. sum +1/-1 votes per bit position, weighted by feature frequency,
4. the fingerprint has bit *i* set iff the vote for position *i* is positive.

Two near-identical documents share most features, so most bit positions
receive nearly identical votes and the fingerprints differ in only a few
bits.  The paper uses 96-bit hashes and a merge threshold of 3 bits.

Steps 3 and 4 run in numpy over a page's distinct features at once; the
bit-at-a-time loop they replace is ``reference_simhash`` in
``tests/test_simhash.py``, which the kernel must match bit for bit.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from itertools import islice
from typing import Iterable, Sequence

import numpy

__all__ = [
    "HASH_BITS",
    "HASH_WORDS",
    "simhash",
    "hamming_distance",
    "pack_hashes",
    "hamming_rows",
    "hamming_cross",
    "tokenize",
    "shingles",
]

#: Width of the fingerprint in bits; the paper uses 96-bit hashes (§4).
HASH_BITS = 96

#: 64-bit words per packed fingerprint row (low word, then high word).
HASH_WORDS = (HASH_BITS + 63) // 64

_HASH_MASK = (1 << HASH_BITS) - 1

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

_TAG_RE = re.compile(r"<[^>]*>")

_DIGEST_BYTES = HASH_BITS // 8

#: Distinct shingles voted per numpy call.  Bounds the kernel's
#: temporaries (the int64 matmul operand is ``_VOTE_BLOCK * HASH_BITS * 8``
#: bytes, 1.5 MB) however many distinct shingles a hostile page carries.
_VOTE_BLOCK = 2048


def tokenize(text: str, *, strip_markup: bool = True) -> list[str]:
    """Split *text* into lowercase alphanumeric tokens.

    HTML tags are treated as token sources too (tag names and attribute
    values carry structural signal), but angle-bracket punctuation is
    dropped.  With ``strip_markup=False`` the raw text is tokenized as-is.
    """
    if strip_markup:
        # No tag starts after the last '>': leaving that tail out of the
        # substitution spares each '<' in a '<' flood a rescan to the end.
        cut = text.rfind(">") + 1
        text = _TAG_RE.sub(" ", text[:cut]) + text[cut:]
    # Lowercase per token, not the whole text first: ``"\u0130".lower()``
    # is ``"i\u0307"``, which would turn a non-token into one.
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def shingles(tokens: list[str], width: int = 3) -> Iterable[str]:
    """Iterate over the overlapping token *width*-grams (shingles).

    Shingling makes the fingerprint sensitive to local word order, which
    distinguishes pages that merely share a vocabulary.  Documents shorter
    than *width* tokens yield a single shingle of all their tokens.
    """
    if width <= 0:
        raise ValueError(f"shingle width must be positive, got {width}")
    if len(tokens) < width:
        return iter((" ".join(tokens),) if tokens else ())
    return map(" ".join, zip(*(tokens[offset:] for offset in range(width))))


def simhash(text: str, *, shingle_width: int = 3) -> int:
    """Compute the 96-bit simhash fingerprint of *text*.

    Returns 0 for documents with no extractable tokens, matching the
    behaviour of treating empty pages as a single degenerate fingerprint.
    """
    tokens = tokenize(text)
    if not tokens:
        return 0
    weights = Counter(shingles(tokens, shingle_width))
    counts = numpy.fromiter(weights.values(), numpy.int64, len(weights))
    features = iter(weights)
    blake2b = hashlib.blake2b
    # ones[j]: total weight of the features whose digest has bit j set,
    # j counted from the digest's most significant bit.
    ones = numpy.zeros(HASH_BITS, numpy.int64)
    for start in range(0, len(weights), _VOTE_BLOCK):
        digests = b"".join([
            blake2b(feature.encode("utf-8"), digest_size=_DIGEST_BYTES).digest()
            for feature in islice(features, _VOTE_BLOCK)
        ])
        bits = numpy.unpackbits(
            numpy.frombuffer(digests, numpy.uint8).reshape(-1, _DIGEST_BYTES),
            axis=1,
        )
        ones += counts[start:start + _VOTE_BLOCK] @ bits
    # A bit's vote is +weight where set, -weight where clear:
    # ones - (total - ones) > 0.
    positive = 2 * ones > counts.sum()
    return int.from_bytes(numpy.packbits(positive).tobytes(), "big")


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two fingerprints (0..HASH_BITS)."""
    return ((a ^ b) & _HASH_MASK).bit_count()


# ----------------------------------------------------------------------
# Vectorized Hamming kernels.
#
# Clustering at scale (analysis/lsh.py, analysis/gap_statistic.py) runs
# Hamming distance over millions of fingerprint pairs.  The kernels below
# pack fingerprints into a (n, HASH_WORDS) uint64 matrix and compute
# distances with ``numpy.bitwise_count`` — bit-for-bit identical to the
# scalar :func:`hamming_distance`.  ``bitwise_count`` is why
# ``pyproject.toml`` requires numpy >= 2.0.


def pack_hashes(hashes: Sequence[int]) -> numpy.ndarray:
    """Pack fingerprints into an ``(n, HASH_WORDS)`` uint64 matrix.

    Row *i* holds ``hashes[i]`` split into little-endian 64-bit words:
    column 0 is bits 0..63, column 1 is bits 64..95.  The matrix is a
    read-only view of one ``bytes`` join.
    """
    words = b"".join([value.to_bytes(8 * HASH_WORDS, "little")
                      for value in hashes])
    return numpy.frombuffer(words, "<u8").reshape(-1, HASH_WORDS)


def hamming_rows(packed_a: numpy.ndarray,
                 packed_b: numpy.ndarray) -> numpy.ndarray:
    """Row-wise Hamming distances between two equal-shape packed matrices.

    Returns a ``(n,)`` integer array where entry *i* equals
    ``hamming_distance(a[i], b[i])``.
    """
    return numpy.bitwise_count(packed_a ^ packed_b).sum(
        axis=1, dtype=numpy.uint32
    )


def hamming_cross(packed_a: numpy.ndarray,
                  packed_b: numpy.ndarray) -> numpy.ndarray:
    """All-pairs Hamming distances: a ``(len(a), len(b))`` matrix.

    Materialises one uint64 temporary of that shape per word — callers
    comparing large populations must block both dimensions.
    """
    out = numpy.zeros((packed_a.shape[0], packed_b.shape[0]),
                      dtype=numpy.uint16)
    for word in range(HASH_WORDS):
        out += numpy.bitwise_count(
            packed_a[:, word, None] ^ packed_b[None, :, word]
        )
    return out
