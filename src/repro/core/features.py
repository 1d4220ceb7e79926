"""Feature extraction from fetched pages (§4).

After each round of scanning, WhoWas extracts ten features per
successfully fetched page and inserts them into the database:

1. back-end technology ("x-powered-by" response header),
2. page description (``<meta name="description">``),
3. the sorted, '#'-joined string of all response-header names,
4. length of the returned HTML,
5. the ``<title>`` string,
6. the web template (``<meta name="generator">``: Joomla!, WordPress…),
7. the server type ("Server" response header),
8. the keywords meta tag,
9. any Google Analytics ID found in the HTML,
10. a 96-bit simhash over the HTML.

Missing entries are recorded as ``"unknown"``.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from .records import UNKNOWN, FetchResult, PageFeatures
from .simhash import simhash as compute_simhash

__all__ = ["FeatureExtractor", "RoundMemo", "extract_links",
           "extract_domains", "GA_ID_RE"]

# Every reader below is linear in the body: the fetcher keeps 512 KB of
# an uncurated page, and a regex that rescans the rest of the body from
# each failed start (``<title>`` x n, ``<`` x n, ``a.`` x n) costs a
# round seconds per page.  Each keeps the output of the plain regex it
# replaced; tests/test_readers.py holds those regexes as oracles.

_TITLE_OPEN_RE = re.compile(r"<title", re.IGNORECASE)
_TITLE_CLOSE_RE = re.compile(r"</title>", re.IGNORECASE)

# Meta tags are matched in two steps — find the tag, then pull the name
# and content attributes independently — because real-world pages write
# the attributes in either order (`content=` before `name=` is common)
# and a single ordered regex silently drops those.
_META_TAG_RE = re.compile(r"<meta\s[^>]*>", re.IGNORECASE)
_META_NAME_RE = re.compile(
    r"""\bname\s*=\s*(?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)'|(?P<bare>[^\s"'>]+))""",
    re.IGNORECASE,
)
_META_CONTENT_RE = re.compile(
    r"""\bcontent\s*=\s*(?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)'|(?P<bare>[^\s"'>]+))""",
    re.IGNORECASE,
)

_META_NAMES = ("description", "keywords", "generator")


def _attr_value(match: re.Match) -> str:
    for group in ("dq", "sq", "bare"):
        value = match.group(group)
        if value is not None:
            return value
    return ""  # pragma: no cover — one alternative always matched


def _iter_meta(body: str) -> Iterator[tuple[str, str]]:
    """Yield (name, content) for every interesting ``<meta>`` tag,
    regardless of attribute order or quoting style."""
    # A tag ends at a '>', so none starts after the last one: bounding
    # the scan there spares each start in a '<meta ' flood its rescan.
    for tag in _META_TAG_RE.finditer(body, 0, body.rfind(">") + 1):
        text = tag.group(0)
        name_match = _META_NAME_RE.search(text)
        if name_match is None:
            continue
        name = _attr_value(name_match).lower()
        if name not in _META_NAMES:
            continue
        content_match = _META_CONTENT_RE.search(text)
        if content_match is None:
            continue
        yield name, _attr_value(content_match)

#: Google Analytics account IDs: UA-<account>-<profile> (§8.3).
GA_ID_RE = re.compile(r"\bUA-(\d{4,10})-(\d{1,4})\b")

_LINK_START_RE = re.compile(r"<a\s", re.IGNORECASE)
#: The rest of ``<a\s+[^>]*href=["']([^"'#]+)["']`` after its first
#: whitespace: ``\s+[^>]*`` reaches the same positions as ``[^>]*``.
_HREF_RE = re.compile(r"""[^>]*href=["']([^"'#]+)["']""", re.IGNORECASE)

_WHITESPACE_RE = re.compile(r"\s+")


def _clean(text: str) -> str:
    return _WHITESPACE_RE.sub(" ", text).strip()


def extract_links(html: str) -> list[str]:
    """All absolute http(s) URLs linked from the page (used by the
    Safe Browsing analysis, which queries every extracted URL)."""
    links = []
    pos = 0
    while (start := _LINK_START_RE.search(html, pos)) is not None:
        match = _HREF_RE.match(html, start.end())
        if match is None:
            # Whether an href matches depends only on where it sits, and
            # a later start inside this tag sees fewer places before the
            # same '>': the whole tag fails, so skip it.
            pos = html.find(">", start.end()) + 1
            if pos == 0:
                break
            continue
        pos = match.end()
        url = match.group(1).strip()
        if url.startswith(("http://", "https://")):
            links.append(url)
    return links


# ``\b((?:[a-z0-9-]+\.)+(?:com|org|net|info|biz|io|co|cn|ru))\b`` in one
# pass.  A match lies inside a *stretch*: a maximal run of non-empty
# labels joined by single dots.  From every word-boundary start in a
# stretch the greedy label chain reaches the same place, the stretch's
# last TLD that ends on a word boundary; the match ends there, and no
# later start in the stretch has a TLD left to reach.  So a stretch
# yields at most one name, from its first boundary start to that end.
#: A TLD that ends on a word boundary, after a label and its dot.
_TLD_RE = re.compile(r"(?<=[a-z0-9-]\.)(?:com|org|net|info|biz|io|co|cn|ru)\b",
                     re.IGNORECASE)
#: What lies between two TLDs of one stretch: labels and single dots.
_LABELS_RE = re.compile(r"(?:[a-z0-9-]+\.)+", re.IGNORECASE)
#: Up to the last character no stretch holds: a non-label character or
#: the second of two dots.
_LAST_BREAK_RE = re.compile(r"(?s:.*)(?:[^a-z0-9.-]|\.\.)", re.IGNORECASE)
_NAME_START_RE = re.compile(r"\b[a-z0-9-]", re.IGNORECASE)


def extract_domains(html: str) -> list[str]:
    """Candidate domain names appearing anywhere in the page, in order
    without duplicates.  Virtual-host 404 pages often leak the intended
    site's domain (§4's second limitation notes WhoWas can sometimes
    recover ownership this way); active DNS then confirms it."""
    # A dict dedupes in first-seen order in linear time; a list
    # membership test made a page of distinct names quadratic.
    found: dict[str, None] = {}
    stretch: list[int] = []     # its first TLD's start, its last TLD's span
    after = 0                   # the end of the stretch before it
    for tld in _TLD_RE.finditer(html):
        if stretch and _LABELS_RE.fullmatch(html, stretch[1], tld.start()):
            stretch[1:] = tld.span()
            continue
        if stretch:
            _take_name(html, after, *stretch, found)
            after = stretch[2]
        stretch = [tld.start(), *tld.span()]
    if stretch:
        _take_name(html, after, *stretch, found)
    return list(found)


def _take_name(html: str, after: int, first: int, last: int, end: int,
               found: dict[str, None]) -> None:
    """Record the name of the stretch whose TLDs run from *first* to
    *last*, if it has a boundary start.  The stretch begins after the
    last break between *after*, where the one before it ended, and
    *first*."""
    brk = _LAST_BREAK_RE.match(html, after, first)
    start = _NAME_START_RE.search(
        html, after if brk is None else brk.end(), last - 1)
    if start is not None:
        found[html[start.start():end].lower()] = None


class RoundMemo:
    """Values keyed by a body digest, kept for as long as the body can
    recur: the rounds that see it again.

    Two generations: this round's and the last one's.  A lookup that
    finds a key in the last round's generation moves it into this
    round's, and :meth:`new_round` drops whatever the last round saw and
    this one did not.  So a body fetched every round is computed once
    per campaign, and the memo holds at most the distinct bodies of two
    consecutive rounds, whatever the scale — a bound that follows the
    round instead of a constant a large round would overrun.  A memo
    nobody rotates keeps everything it was given.
    """

    __slots__ = ("_current", "_previous")

    def __init__(self) -> None:
        self._current: dict = {}
        self._previous: dict = {}

    def get(self, key):
        value = self._current.get(key)
        if value is None:
            value = self._previous.pop(key, None)
            if value is not None:
                self._current[key] = value
        return value

    def put(self, key, value) -> None:
        self._current[key] = value

    def new_round(self) -> None:
        self._previous = self._current
        self._current = {}


#: The body half of a page with no body.
_NO_BODY = (UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, 0)


def _title(body: str) -> str | None:
    """What ``<title[^>]*>(.*?)</title>`` captures, in one pass.  Only
    the first ``<title`` can match: a later one reaches the same or a
    later '>', and no ``</title>`` follows that if none follows the
    first one's."""
    opening = _TITLE_OPEN_RE.search(body)
    if opening is None:
        return None
    start = body.find(">", opening.end()) + 1
    closing = _TITLE_CLOSE_RE.search(body, start) if start else None
    return None if closing is None else body[start:closing.start()]


def _body_half(body: str) -> tuple[str, str, str, str, str, int]:
    """Everything :class:`PageFeatures` takes from a non-empty body:
    (title, description, keywords, template, analytics id, simhash)."""
    title = description = keywords = template = analytics_id = UNKNOWN
    text = _title(body)
    if text is not None:
        title = _clean(text) or UNKNOWN
    for name, raw_content in _iter_meta(body):
        content = _clean(raw_content)
        if not content:
            continue
        if name == "description":
            description = content
        elif name == "keywords":
            keywords = content
        elif name == "generator":
            template = content
    ga_match = GA_ID_RE.search(body)
    if ga_match:
        analytics_id = ga_match.group(0)
    return (title, description, keywords, template, analytics_id,
            compute_simhash(body))


class FeatureExtractor:
    """Computes :class:`PageFeatures` for fetched pages.

    A page's features split in two.  The body half — title,
    description, keywords, template, Analytics ID and the simhash — is
    a pure function of the body, and rounds overwhelmingly refetch
    unchanged pages (the paper's churn is ~3 % per round; a warm
    benchmark round repeats ~96 % of its bodies).  So it is memoised
    under :attr:`FetchResult.body_digest`, a real content digest
    (Python's ``hash()`` collides too easily to key a correctness-
    critical cache), in a :class:`RoundMemo` the platform rotates at
    every round start.  The header half (``powered_by``, ``server``,
    ``header_string``) and ``html_length`` are computed per fetch.  A
    warm page therefore costs one digest and a dict lookup.

    ``memoize=False`` computes everything on every call and never
    touches the digest.  An extraction that raised has nothing to
    store.
    """

    def __init__(self, *, memoize: bool = True):
        self._memoize = memoize
        self._memo = RoundMemo()

    def extract(self, fetch: FetchResult) -> PageFeatures:
        """Features for one fetch; empty/non-text bodies yield defaults."""
        headers = fetch.headers
        body = fetch.body or ""
        if not body:
            half = _NO_BODY
        elif not self._memoize:
            half = _body_half(body)
        else:
            key = fetch.body_digest
            half = self._memo.get(key)
            if half is None:
                half = _body_half(body)
                self._memo.put(key, half)
        title, description, keywords, template, analytics_id, simhash = half
        return PageFeatures(
            powered_by=self._header(headers, "x-powered-by"),
            description=description,
            header_string=self._header_string(headers),
            html_length=len(body),
            title=title,
            template=template,
            server=self._header(headers, "server"),
            keywords=keywords,
            analytics_id=analytics_id,
            simhash=simhash,
        )

    def new_round(self) -> None:
        """Start a memo generation (the platform calls this per round)."""
        self._memo.new_round()

    @staticmethod
    def _header(headers: Mapping[str, str], name: str) -> str:
        for key, value in headers.items():
            if key.lower() == name:
                return value or UNKNOWN
        return UNKNOWN

    @staticmethod
    def _header_string(headers: Mapping[str, str]) -> str:
        """Feature (3): all header field names, sorted, '#'-separated."""
        if not headers:
            return UNKNOWN
        return "#".join(sorted(map(str.lower, headers)))
