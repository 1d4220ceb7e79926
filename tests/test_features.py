"""Tests for the per-page feature extraction (§4's ten features)."""

from __future__ import annotations

import time

from repro.core.features import (
    FeatureExtractor,
    extract_domains,
    extract_links,
)
from repro.core.records import UNKNOWN, FetchResult, FetchStatus
from repro.core.simhash import simhash

PAGE = """
<html><head>
<title>  My   Shop  </title>
<meta name="description" content="great deals online">
<meta name="keywords" content="shop,deals,cheap">
<meta name="generator" content="WordPress 3.5.1">
</head><body>
<a href="http://example.com/page">link</a>
<a href="https://other.example.org/x?y=1">other</a>
<a href="/relative/path">rel</a>
<script>var _gaq=[['_setAccount', 'UA-123456-2']];</script>
</body></html>
"""

HEADERS = {
    "Server": "Apache/2.2.22",
    "X-Powered-By": "PHP/5.3.10",
    "Content-Type": "text/html",
    "Date": "x",
}


def fetch(body: str | None = PAGE, headers=None) -> FetchResult:
    return FetchResult(
        ip=1,
        status=FetchStatus.OK,
        status_code=200,
        headers=HEADERS if headers is None else headers,
        body=body,
    )


class TestFeatureExtraction:
    def test_all_ten_features(self):
        features = FeatureExtractor().extract(fetch())
        assert features.powered_by == "PHP/5.3.10"             # (1)
        assert features.description == "great deals online"     # (2)
        assert features.header_string == (                      # (3)
            "content-type#date#server#x-powered-by"
        )
        assert features.html_length == len(PAGE)                # (4)
        assert features.title == "My Shop"                      # (5)
        assert features.template == "WordPress 3.5.1"           # (6)
        assert features.server == "Apache/2.2.22"               # (7)
        assert features.keywords == "shop,deals,cheap"          # (8)
        assert features.analytics_id == "UA-123456-2"           # (9)
        assert features.simhash == simhash(PAGE)                # (10)

    def test_missing_marked_unknown(self):
        features = FeatureExtractor().extract(
            fetch(body="<html><body>plain</body></html>", headers={})
        )
        assert features.title == UNKNOWN
        assert features.description == UNKNOWN
        assert features.keywords == UNKNOWN
        assert features.template == UNKNOWN
        assert features.analytics_id == UNKNOWN
        assert features.server == UNKNOWN
        assert features.powered_by == UNKNOWN
        assert features.header_string == UNKNOWN

    def test_empty_body(self):
        features = FeatureExtractor().extract(fetch(body=""))
        assert features.simhash == 0
        assert features.html_length == 0

    def test_header_lookup_case_insensitive(self):
        features = FeatureExtractor().extract(
            fetch(headers={"SERVER": "nginx", "x-powered-by": "Express"})
        )
        assert features.server == "nginx"
        assert features.powered_by == "Express"

    def test_level1_key(self):
        features = FeatureExtractor().extract(fetch())
        assert features.level1_key() == (
            "My Shop",
            "WordPress 3.5.1",
            "Apache/2.2.22",
            "shop,deals,cheap",
            "UA-123456-2",
        )

    def test_title_whitespace_collapsed(self):
        features = FeatureExtractor().extract(
            fetch(body="<title>a\n\n  b</title>")
        )
        assert features.title == "a b"

    def test_simhash_memoized(self):
        extractor = FeatureExtractor()
        first = extractor.extract(fetch())
        second = extractor.extract(fetch())
        assert first == second
        assert memo_size(extractor) == 1

    def test_surrogates_do_not_break_memoization(self):
        extractor = FeatureExtractor()
        body = "<html>\udcff lone surrogate</html>"
        first = extractor.extract(fetch(body=body))
        second = extractor.extract(fetch(body=body))
        assert first.simhash == second.simhash

    def test_ga_id_formats(self):
        features = FeatureExtractor().extract(
            fetch(body="<html>UA-9999-1</html>")
        )
        assert features.analytics_id == "UA-9999-1"

    def test_meta_attribute_order_reversed(self):
        # Real pages commonly write content= before name=; the ordered
        # single-regex parser used to drop these silently.
        body = """<html><head>
        <meta content="deals first" name="description">
        <meta content="a,b" name="keywords">
        <meta content="Joomla! 2.5" name="generator">
        </head></html>"""
        features = FeatureExtractor().extract(fetch(body=body))
        assert features.description == "deals first"
        assert features.keywords == "a,b"
        assert features.template == "Joomla! 2.5"

    def test_meta_quoting_variants(self):
        body = (
            "<meta name='description' content='single quoted'>"
            "<meta name=keywords content=bare>"
            '<meta NAME="Generator" CONTENT="WP">'
        )
        features = FeatureExtractor().extract(fetch(body=body))
        assert features.description == "single quoted"
        assert features.keywords == "bare"
        assert features.template == "WP"

    def test_meta_without_name_or_content_ignored(self):
        body = (
            "<meta charset='utf-8'>"
            "<meta name='description'>"
            "<meta name='viewport' content='width=device-width'>"
        )
        features = FeatureExtractor().extract(fetch(body=body))
        assert features.description == UNKNOWN


def counting_fingerprints(monkeypatch) -> list[int]:
    """Count the fingerprints the extractor computes: one entry per
    memo miss (the simhash is computed with the rest of the body half)."""
    import repro.core.features as features_module

    computed: list[int] = []
    real = features_module.compute_simhash

    def counted(body):
        computed.append(1)
        return real(body)

    monkeypatch.setattr(features_module, "compute_simhash", counted)
    return computed


def memo_size(extractor: FeatureExtractor) -> int:
    """Bodies the extractor's memo holds, over both generations."""
    memo = extractor._memo
    return len(memo._current) + len(memo._previous)


class TestMemoGenerations:
    def test_memo_is_sized_by_the_round(self, monkeypatch):
        """More distinct bodies than the old 4 096-entry LRU held, fed
        over two rounds in the same cyclic order: the LRU evicted each
        body just before its next sight and recomputed all of them; the
        round-sized memo recomputes none."""
        computed = counting_fingerprints(monkeypatch)
        bodies = [f"<html><title>t{n}</title>body {n}</html>"
                  for n in range(5000)]
        extractor = FeatureExtractor()
        for _ in range(2):
            extractor.new_round()
            computed.clear()
            for body in bodies:
                extractor.extract(fetch(body=body))
        assert computed == []
        assert memo_size(extractor) == len(bodies)

    def test_a_body_not_seen_for_a_round_is_dropped(self, monkeypatch):
        computed = counting_fingerprints(monkeypatch)
        extractor = FeatureExtractor()
        extractor.extract(fetch(body="<html>old</html>"))
        extractor.new_round()
        extractor.extract(fetch(body="<html>new</html>"))
        extractor.new_round()           # "old" was not seen last round
        assert memo_size(extractor) == 1
        extractor.extract(fetch(body="<html>old</html>"))
        extractor.extract(fetch(body="<html>new</html>"))
        assert len(computed) == 3

    def test_warm_page_keeps_its_per_fetch_fields(self):
        """The memo holds the body half only: headers and the length
        are read from each fetch."""
        extractor = FeatureExtractor()
        cold = extractor.extract(fetch())
        other = {"Server": "nginx", "X-Powered-By": "Express"}
        warm = extractor.extract(fetch(headers=other))
        assert warm == FeatureExtractor(memoize=False).extract(
            fetch(headers=other))
        assert (warm.server, warm.powered_by, warm.header_string) == (
            "nginx", "Express", "server#x-powered-by")
        assert warm.level1_key()[:2] == cold.level1_key()[:2]
        assert warm.simhash == cold.simhash

    def test_memoize_false_computes_every_page(self, monkeypatch):
        computed = counting_fingerprints(monkeypatch)
        extractor = FeatureExtractor(memoize=False)
        page = fetch()
        for _ in range(3):
            extractor.extract(page)
        assert len(computed) == 3
        assert "body_digest" not in vars(page)

    def test_digest_is_cached_and_not_a_field(self):
        page = fetch()
        assert page.body_digest is page.body_digest
        assert page == fetch() and repr(page) == repr(fetch())


class TestExtractLinks:
    def test_absolute_links_only(self):
        links = extract_links(PAGE)
        assert links == [
            "http://example.com/page",
            "https://other.example.org/x?y=1",
        ]

    def test_no_links(self):
        assert extract_links("<html></html>") == []

    def test_single_quotes(self):
        assert extract_links("<a href='http://a.b/c'>x</a>") == ["http://a.b/c"]


class TestDedupeIsLinear:
    """One page of distinct entries under the fetcher's 512 KB cap made
    the list-membership dedupe quadratic (50 000 entries: ≈ 19 s).  The
    bound is absolute and generous; the linear version needs ≈ 0.1 s."""

    ENTRIES = 50_000
    BOUND_S = 2.0

    def timed(self, function, html):
        started = time.perf_counter()
        result = function(html)
        assert time.perf_counter() - started < self.BOUND_S
        return result

    def test_extract_domains_many_distinct_names(self):
        names = [f"h{i}.example.com" for i in range(self.ENTRIES)]
        html = " ".join(names + names[:100] + ["H7.EXAMPLE.COM"])
        assert self.timed(extract_domains, html) == names
