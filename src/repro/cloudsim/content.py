"""Synthetic webpage generation for simulated cloud tenants.

Every simulated web service owns a :class:`ContentProfile` describing the
page it serves: title, meta description/keywords, generator template,
Google Analytics ID, third-party tracker snippets, embedded links, and a
deterministic body.  Profiles render to HTML as a function of a *major*
version (site redesigns, which move the page to a different cluster) and
a *revision* (small edits, which perturb only a few tokens so the simhash
stays within the merge threshold).

The tracker catalog reproduces Table 20: tracking code always contains a
characteristic URL that the analysis engine fingerprints with a regex.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

__all__ = [
    "TrackerSpec",
    "TRACKER_CATALOG",
    "GoogleAnalyticsRegistry",
    "ContentProfile",
    "ContentFactory",
    "DEFAULT_PAGES",
]


@dataclass(frozen=True)
class TrackerSpec:
    """A third-party tracker and the URL fingerprint its code embeds."""

    name: str
    fingerprint_url: str

    def script(self, site_token: str) -> str:
        return (
            f'<script type="text/javascript" src='
            f'"{self.fingerprint_url}/{site_token}.js"></script>'
        )


#: Trackers of Table 20 with weights shaped like the measured popularity
#: (google-analytics handled separately because it carries an account ID).
TRACKER_CATALOG: tuple[tuple[TrackerSpec, float], ...] = (
    (TrackerSpec("facebook", "http://connect.facebook.net/en_US/all"), 24130),
    (TrackerSpec("twitter", "http://platform.twitter.com/widgets"), 14706),
    (TrackerSpec("doubleclick", "http://ad.doubleclick.net/adj"), 5342),
    (TrackerSpec("quantserve", "http://edge.quantserve.com/quant"), 2243),
    (TrackerSpec("scorecardresearch", "http://b.scorecardresearch.com/beacon"), 1509),
    (TrackerSpec("imrworldwide", "http://secure-us.imrworldwide.com/v60"), 474),
    (TrackerSpec("serving-sys", "http://bs.serving-sys.com/BurstingPipe"), 383),
    (TrackerSpec("atdmt", "http://view.atdmt.com/action"), 275),
    (TrackerSpec("yieldmanager", "http://ad.yieldmanager.com/pixel"), 188),
    (TrackerSpec("adnxs", "http://ib.adnxs.com/ttj"), 150),
)

#: The Google Analytics tracker (most popular in both clouds).
GA_TRACKER = TrackerSpec("google-analytics", "http://www.google-analytics.com/ga")


class GoogleAnalyticsRegistry:
    """Issues ``UA-<account>-<profile>`` IDs with the per-account profile
    distribution of §8.3: ~93.5% of accounts use a single profile, ~4.8%
    two, and a small tail up to tens of profiles."""

    _PROFILE_COUNTS: tuple[tuple[int, float], ...] = (
        (1, 0.935),
        (2, 0.048),
        (3, 0.007),
        (5, 0.004),
        (8, 0.003),
        (14, 0.002),
        (35, 0.001),
    )

    def __init__(self, rng: random.Random, first_account: int = 10_000):
        self._rng = rng
        self._next_account = first_account
        self._open: list[tuple[int, int, int]] = []  # (account, next_profile, max)

    def issue(self) -> str:
        """Return a fresh GA ID, reusing an account while it has unused
        profile slots so multi-site owners emerge naturally."""
        if self._open and self._rng.random() < 0.5:
            index = self._rng.randrange(len(self._open))
            account, next_profile, limit = self._open[index]
            if next_profile + 1 >= limit:
                self._open.pop(index)
            else:
                self._open[index] = (account, next_profile + 1, limit)
            return f"UA-{account}-{next_profile}"
        account = self._next_account
        self._next_account += 1
        limit = self._sample_profile_count()
        if limit > 1:
            self._open.append((account, 2, limit + 1))
        return f"UA-{account}-1"

    def _sample_profile_count(self) -> int:
        roll = self._rng.random()
        acc = 0.0
        for count, probability in self._PROFILE_COUNTS:
            acc += probability
            if roll <= acc:
                return count
        return 1


_ADJECTIVES = (
    "rapid swift bright global prime nimble quantum silver urban vivid "
    "crimson solid lunar polar amber coastal digital open modular arctic "
    "golden emerald northern keen astute clever brisk stellar cosmic"
).split()

_NOUNS = (
    "analytics commerce ledger beacon harbor studio forge vault relay "
    "pipeline garden market signal atlas summit bridge lantern orchard "
    "foundry circuit compass meadow quarry harvest anchor prism canvas"
).split()

_TOPICS = (
    "dashboard platform service portal storefront tracker toolkit suite "
    "exchange network hub engine console monitor planner registry"
).split()

_BODY_VOCABULARY = (
    "customers deploy scalable workloads across regions while the control "
    "plane balances traffic and replicates state our team ships features "
    "weekly with automated pipelines monitoring alerts capacity billing "
    "reports integrate directly into the console users create projects "
    "invite collaborators configure webhooks and export data through the "
    "public api documentation tutorials and community forums help new "
    "operators onboard quickly security reviews audit logs encryption at "
    "rest and role based access keep tenant data isolated pricing scales "
    "with usage and reserved plans reduce long term cost the roadmap "
    "includes realtime streams smarter caching and regional failover"
).split()

#: Canonical default/test pages (the clusters the cleaning step excludes).
DEFAULT_PAGES: dict[str, tuple[str, str]] = {
    "Apache": (
        "Apache2 Ubuntu Default Page: It works",
        "This is the default welcome page used to test the correct "
        "operation of the Apache2 server after installation.",
    ),
    "nginx": (
        "Welcome to nginx!",
        "If you see this page, the nginx web server is successfully "
        "installed and working. Further configuration is required.",
    ),
    "Microsoft-IIS": (
        "IIS7",
        "Internet Information Services welcome page. Server ready.",
    ),
    "lighttpd": (
        "Placeholder page",
        "The owner of this web site has not put up any web pages yet.",
    ),
}

_ERROR_TITLES: dict[str, str] = {
    "404": "404 Not Found",
    "403": "403 Forbidden",
    "500": "500 Internal Server Error",
    "503": "Service Temporarily Unavailable - Error",
}


@dataclass(frozen=True)
class ContentProfile:
    """Everything needed to render a service's top-level page."""

    title: str
    description: str
    keywords: str
    template: str               # generator meta tag value ("" = none)
    analytics_id: str           # "" = no GA
    tracker_scripts: tuple[str, ...] = ()
    links: tuple[str, ...] = ()          # ordinary external links
    malicious_links: tuple[str, ...] = ()  # links flagged by blacklists
    #: Internal paths linked from the home page.
    subpages: tuple[str, ...] = ()
    body_seed: int = 0
    body_tokens: int = 120
    content_type: str = "text/html"
    status_code: int = 200
    robots_disallow: bool = False
    domain: str = ""

    def with_malicious_links(self, links: tuple[str, ...]) -> "ContentProfile":
        return replace(self, malicious_links=links)

    def render(self, major: int = 0, revision: int = 0) -> str:
        """Render the page body deterministically.

        *major* reshuffles the whole body (a redesign); *revision* swaps a
        handful of tokens, leaving the simhash within a few bits.
        """
        if self.content_type == "application/json":
            return self._render_json(major, revision)
        if self.content_type in ("text/plain",):
            return " ".join(self._body_words(major, revision))
        if self.content_type in ("application/xml", "text/xml"):
            return self._render_xml(major, revision)
        return self._render_html(major, revision)

    def _body_words(self, major: int, revision: int) -> list[str]:
        rng = random.Random(self.body_seed * 1_000_003 + major)
        words = [rng.choice(_BODY_VOCABULARY) for _ in range(self.body_tokens)]
        if revision:
            # One-token edits keep successive revisions a few simhash
            # bits apart (real minor page edits move large pages by only
            # a couple of bits; our synthetic pages are shorter).
            edit_rng = random.Random(
                self.body_seed * 7_777_777 + major * 97 + revision
            )
            position = edit_rng.randrange(len(words))
            words[position] = edit_rng.choice(_BODY_VOCABULARY)
        return words

    def _render_html(self, major: int, revision: int) -> str:
        head: list[str] = ["<html><head>", f"<title>{self.title}</title>"]
        if self.description:
            head.append(f'<meta name="description" content="{self.description}">')
        if self.keywords:
            head.append(f'<meta name="keywords" content="{self.keywords}">')
        if self.template:
            head.append(f'<meta name="generator" content="{self.template}">')
        head.append("</head><body>")
        parts = head
        parts.append(f"<h1>{self.title}</h1>")
        words = self._body_words(major, revision)
        for start in range(0, len(words), 40):
            parts.append("<p>" + " ".join(words[start : start + 40]) + "</p>")
        for path in self.subpages:
            parts.append(f'<a href="{path}">{path.strip("/")}</a>')
        for url in self.links + self.malicious_links:
            parts.append(f'<a href="{url}">{url.split("//")[-1][:40]}</a>')
        if self.analytics_id:
            parts.append(
                "<script type=\"text/javascript\">var _gaq=_gaq||[];"
                f"_gaq.push(['_setAccount', '{self.analytics_id}']);"
                "(function(){var ga=document.createElement('script');"
                f"ga.src='{GA_TRACKER.fingerprint_url}.js';}})();</script>"
            )
        parts.extend(self.tracker_scripts)
        if self.domain:
            parts.append(f"<!-- served for {self.domain} -->")
        parts.append("</body></html>")
        return "\n".join(parts)

    def _render_json(self, major: int, revision: int) -> str:
        words = self._body_words(major, revision)
        return (
            '{"service": "%s", "status": "ok", "detail": "%s"}'
            % (self.title, " ".join(words[:30]))
        )

    def _render_xml(self, major: int, revision: int) -> str:
        words = self._body_words(major, revision)
        return (
            f"<?xml version=\"1.0\"?><service><name>{self.title}</name>"
            f"<detail>{' '.join(words[:30])}</detail></service>"
        )


class ContentFactory:
    """Draws coherent content profiles for simulated services."""

    #: Fractions of pages per content type, shaped like Table 5.
    _CONTENT_TYPES: tuple[tuple[str, float], ...] = (
        ("text/html", 0.959),
        ("text/plain", 0.021),
        ("application/json", 0.010),
        ("application/xml", 0.006),
        ("text/xml", 0.003),
    )

    #: §8.3: 77% of tracker-using pages embed one tracker, 16% two, 6%
    #: three (EC2); plus the share of pages using any tracker at all.
    _EXTRA_TRACKER_COUNTS: tuple[tuple[int, float], ...] = (
        (0, 0.77),
        (1, 0.16),
        (2, 0.06),
        (3, 0.01),
    )

    def __init__(self, rng: random.Random, *, tracker_share: float = 0.25,
                 robots_disallow_rate: float = 0.01):
        self._rng = rng
        self._ga = GoogleAnalyticsRegistry(rng)
        self._tracker_share = tracker_share
        self._robots_disallow_rate = robots_disallow_rate
        from .software import WeightedChoice  # local import avoids a cycle

        self._trackers = WeightedChoice(list(TRACKER_CATALOG))
        self._content_types = WeightedChoice(list(self._CONTENT_TYPES))

    def _site_name(self) -> tuple[str, str]:
        rng = self._rng
        name = f"{rng.choice(_ADJECTIVES)}{rng.choice(_NOUNS)}"
        title = (
            f"{name.capitalize()} {rng.choice(_TOPICS).capitalize()}"
            f" {rng.randrange(10_000)}"
        )
        return name, title

    def make_profile(self, *, template: str = "", status_behavior: str = "200",
                     default_family: str = "") -> ContentProfile:
        """Create a fresh content profile.

        ``default_family`` forces a canonical default server page;
        ``status_behavior`` of "404"/"403"/"500"/"503" produces error-page
        services (virtual hosts that refuse bare-IP requests, §4).
        """
        rng = self._rng
        if default_family:
            family = default_family if default_family in DEFAULT_PAGES else "Apache"
            title, blurb = DEFAULT_PAGES[family]
            return ContentProfile(
                title=title,
                description=blurb,
                keywords="",
                template="",
                analytics_id="",
                # crc32, not hash(): body_seed must not depend on
                # PYTHONHASHSEED or simhashes drift across processes.
                body_seed=zlib.crc32(family.encode()) & 0x7FFFFFFF,
                body_tokens=60,
                status_code=200,
            )
        name, title = self._site_name()
        domain = f"www.{name}{rng.randrange(1000)}.com"
        if status_behavior != "200":
            status_code = int(status_behavior)
            return ContentProfile(
                title=_ERROR_TITLES.get(status_behavior, "Error"),
                description="",
                keywords="",
                template="",
                analytics_id="",
                body_seed=rng.getrandbits(31),
                body_tokens=30,
                status_code=status_code,
                domain=domain if rng.random() < 0.5 else "",
            )
        keywords = ",".join(
            sorted({rng.choice(_NOUNS), rng.choice(_TOPICS), rng.choice(_ADJECTIVES)})
        )
        analytics_id = ""
        tracker_scripts: list[str] = []
        if rng.random() < self._tracker_share:
            analytics_id = self._ga.issue()
            extra = self._sample_extra_trackers()
            chosen: set[str] = set()
            while len(chosen) < extra:
                spec = self._trackers.sample(rng)
                if spec.name not in chosen:
                    chosen.add(spec.name)
                    tracker_scripts.append(spec.script(name))
        links = tuple(
            f"http://partner{rng.randrange(500)}.example.org/{rng.choice(_NOUNS)}"
            for _ in range(rng.randrange(4))
        )
        subpage_pool = ("/about", "/products", "/pricing", "/blog",
                        "/contact", "/docs")
        subpages = tuple(
            rng.sample(subpage_pool, rng.randrange(0, 4))
        )
        return ContentProfile(
            title=title,
            description=f"{title} — {rng.choice(_BODY_VOCABULARY)} "
                        f"{rng.choice(_BODY_VOCABULARY)}",
            keywords=keywords,
            template=template,
            analytics_id=analytics_id,
            tracker_scripts=tuple(tracker_scripts),
            links=links,
            body_seed=rng.getrandbits(31),
            body_tokens=160 + rng.randrange(200),
            content_type=self._content_types.sample(rng),
            robots_disallow=rng.random() < self._robots_disallow_rate,
            domain=domain,
            subpages=subpages,
        )

    def _sample_extra_trackers(self) -> int:
        roll = self._rng.random()
        acc = 0.0
        for count, probability in self._EXTRA_TRACKER_COUNTS:
            acc += probability
            if roll <= acc:
                return count
        return 0
