"""The body readers: the plain regexes they replaced are the oracles,
and no page shape costs more than a linear scan.

Each reader in ``core/features.py`` and ``core/simhash.py`` used to be a
single regex that rescans the rest of the body from every start that
fails, so a repeated prefix (``<title>`` x n, ``<`` x n, ``a.`` x n)
took time quadratic in the page.  The rewrites bound where a match may
start or end.  Here the old regexes run over small bodies, where their
cost does no harm, and every new reader must return what they return;
then each reader gets the fetcher's 512 KB cap of every repeated-prefix
shape under a fixed ceiling.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trackers import _fingerprints_in
from repro.core.features import (
    _META_NAME_RE,
    _META_CONTENT_RE,
    _META_NAMES,
    _attr_value,
    _body_half,
    _iter_meta,
    _title,
    extract_domains,
    extract_links,
)
from repro.core.guard import Supervisor
from repro.core.simhash import simhash, tokenize

# -- the oracles: the regexes the readers replaced --------------------

TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)
META_TAG_RE = re.compile(r"<meta\s[^>]*>", re.IGNORECASE)
LINK_RE = re.compile(r"""<a\s+[^>]*href=["']([^"'#]+)["']""", re.IGNORECASE)
DOMAIN_RE = re.compile(
    r"\b((?:[a-z0-9-]+\.)+(?:com|org|net|info|biz|io|co|cn|ru))\b",
    re.IGNORECASE,
)
TAG_RE = re.compile(r"<[^>]*>")
TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def oracle_title(body):
    match = TITLE_RE.search(body)
    return None if match is None else match.group(1)


def oracle_meta(body):
    found = []
    for tag in META_TAG_RE.finditer(body):
        text = tag.group(0)
        name = _META_NAME_RE.search(text)
        if name is None or _attr_value(name).lower() not in _META_NAMES:
            continue
        content = _META_CONTENT_RE.search(text)
        if content is not None:
            found.append((_attr_value(name).lower(), _attr_value(content)))
    return found


def oracle_links(html):
    return [
        url for url in (m.group(1).strip() for m in LINK_RE.finditer(html))
        if url.startswith(("http://", "https://"))
    ]


def oracle_domains(html):
    return list(dict.fromkeys(
        m.group(1).lower() for m in DOMAIN_RE.finditer(html)))


def oracle_tokens(text):
    return [t.lower() for t in TOKEN_RE.findall(TAG_RE.sub(" ", text))]


# -- equal output over small bodies -----------------------------------

#: Pieces every reader turns on: tag fragments, the title close, '>',
#: label dots, '_' and digits and non-ASCII word characters beside a
#: label (``\b`` is Unicode-aware), the letters ``re.IGNORECASE``
#: folds onto ASCII (İ ı ſ K), TLDs, quotes, '#', whitespace.
FRAGMENTS = [
    "<title", "<TITLE>", "<title x>", "</title>", "</title", "</TiTlE>",
    "<a ", "<A\t", "<a\n", " href=", "HREF=", "href='", 'href="', "'",
    '"', "#", "http://", "https://", " http://x.com/p ", "<meta ",
    "<META\n", "name=", "content=", "description", "keywords",
    "generator", ">", "<", "<<", ".", "..", "_", "-", "é", "1", "42",
    "com", "co", "net", "io", "info", "org", "biz", "cn", "ru",
    "a", "Z", "x", "www", "İ", "ı", "ſ", "K", "²", " ", "\n", "&#",
    "UA-1234-5", "\x00",
]

bodies = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS),
              st.text(alphabet="ab.-_é<>/ ", max_size=4)),
    max_size=40,
).map("".join)


class TestReadersEqualTheirOracles:
    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_title(self, body):
        assert _title(body) == oracle_title(body)

    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_meta(self, body):
        assert list(_iter_meta(body)) == oracle_meta(body)

    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_links(self, body):
        assert extract_links(body) == oracle_links(body)

    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_domains(self, body):
        assert extract_domains(body) == oracle_domains(body)

    @settings(max_examples=400, deadline=None)
    @given(bodies)
    def test_simhash_tokens(self, body):
        assert tokenize(body) == oracle_tokens(body)

    @pytest.mark.parametrize("body,expected", [
        ("see www.Example.com.", ["www.example.com"]),
        ("a.com.b.net x.co.uk", ["a.com.b.net", "x.co"]),
        ("éa.com _b.org 1c.net", ["1c.net"]),
        ("éa.b.com é-x.io", ["b.com", "-x.io"]),
        ("a.comé a.com_ a.com-x", ["a.com"]),
        ("a..b.com ..c.org .d.net", ["b.com", "c.org", "d.net"]),
        ("a.ınfo ſ.com", ["a.ınfo", "ſ.com"]),
    ])
    def test_domain_edges(self, body, expected):
        assert oracle_domains(body) == expected
        assert extract_domains(body) == expected

    @pytest.mark.parametrize("html", [
        "<a class=x href='http://a/' id=y href=\"http://b/\">",
        "<a  href='http://a/>b'<a href='https://c/'>",
        "<a href='http://a/#top'> <a x <a href=\"http://d/\">",
    ])
    def test_link_edges(self, html):
        assert extract_links(html) == oracle_links(html)


# -- no shape costs more than a scan ----------------------------------

#: The fetcher's body cap.
PAGE_BYTES = 512 * 1024

#: Repeated prefixes that made a reader rescan the rest of the body
#: from every start.
SHAPES = ["<title>", "<a ", "<meta ", "a.", "<", "&#", "</title>"]

READERS = {
    "body_half": _body_half,
    "inspect_body": Supervisor()._inspect_body,
    "simhash": simhash,
    "extract_links": extract_links,
    "extract_domains": extract_domains,
    "tracker_scan": _fingerprints_in,
}

#: Seconds per 512 KB page.  The slowest reading on a 2-vCPU host is
#: 0.16 s (``_body_half`` on ``a.``, mostly simhash's 262 144 tokens);
#: the old readers took 60 s to hours on the quadratic shapes.
CEILING_S = 0.5


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("reader", list(READERS))
def test_each_reader_scans_each_shape_in_linear_time(reader, shape):
    body = (shape * (PAGE_BYTES // len(shape) + 1))[:PAGE_BYTES]
    begun = time.perf_counter()
    READERS[reader](body)
    assert time.perf_counter() - begun < CEILING_S
