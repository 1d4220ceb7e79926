"""Web software ecosystem distributions (§8.3 of the paper).

The simulator assigns every web service a server product + version, an
optional backend technology, and an optional site template.  The weights
below are taken from the shares the paper measured on EC2 and Azure, so
the census analysis (``repro.analysis.census``) reproduces the same
rankings: Apache/nginx/IIS ordering on EC2, IIS dominance on Azure,
pervasive stale versions, and the SERT-listed vulnerable servers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generic, Sequence, TypeVar

__all__ = [
    "WeightedChoice",
    "SoftwareStack",
    "SoftwareCatalog",
    "EC2_CATALOG",
    "AZURE_CATALOG",
    "VULNERABLE_SERVERS",
    "VULNERABLE_WORDPRESS_MAX",
]

T = TypeVar("T")


class WeightedChoice(Generic[T]):
    """A reusable weighted categorical distribution."""

    def __init__(self, weighted_items: Sequence[tuple[T, float]]):
        if not weighted_items:
            raise ValueError("weighted_items must not be empty")
        items, weights = zip(*weighted_items)
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.items: tuple[T, ...] = tuple(items)
        self.weights: tuple[float, ...] = tuple(w / total for w in weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for weight in self.weights:
            acc += weight
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> T:
        roll = rng.random()
        for item, bound in zip(self.items, self._cumulative):
            if roll <= bound:
                return item
        return self.items[-1]


@dataclass(frozen=True)
class SoftwareStack:
    """The software a single web service runs."""

    server: str          # full Server header value, e.g. "Apache/2.2.22"
    server_family: str   # "Apache", "nginx", "Microsoft-IIS", ...
    backend: str         # x-powered-by value, or "" if not advertised
    template: str        # generator template, e.g. "WordPress 3.5.1", or ""


#: SSH banner distribution for instances exposing port 22 (the paper's
#: future-work item "analyze non-web services"; version staleness on
#: sshd mirrors the web-software staleness of §8.3).
SSH_BANNERS = WeightedChoice(
    [
        ("SSH-2.0-OpenSSH_5.9p1 Debian-5ubuntu1.1", 28.0),
        ("SSH-2.0-OpenSSH_5.3", 18.0),
        ("SSH-2.0-OpenSSH_6.0p1 Debian-4+deb7u2", 14.0),
        ("SSH-2.0-OpenSSH_5.9", 10.0),
        ("SSH-2.0-OpenSSH_6.2", 7.0),
        ("SSH-2.0-OpenSSH_4.3", 4.0),
        ("SSH-2.0-OpenSSH_6.4", 3.0),
        ("SSH-2.0-dropbear_2012.55", 3.0),
        ("SSH-2.0-dropbear_0.52", 1.5),
        ("SSH-1.99-OpenSSH_3.9p1", 0.5),
        ("SSH-2.0-WinSSHD 5.05", 1.0),
    ]
)

#: Server versions carrying known vulnerabilities; seven of SERT's top-10
#: most vulnerable servers were observed in both clouds (§8.3).
VULNERABLE_SERVERS: frozenset[str] = frozenset(
    {
        "Microsoft-IIS/6.0",
        "Apache/1.3.42",
        "Apache/2.2.22",
        "Apache/2.2.24 (Unix) mod_ssl/2.2.24 OpenSSL/1.0.0-fips "
        "mod_auth_passthrough/2.1 mod_bwlimited/1.4 FrontPage/5.0.2.2635",
        "Apache/2.2.3",
        "Microsoft-IIS/5.0",
        "Apache/2.0.63",
    }
)

#: WordPress versions below 3.6 contain known XSS vulnerabilities
#: (CVE-2013-4338 et al.; §8.3).
VULNERABLE_WORDPRESS_MAX = (3, 6)


def _apache_versions() -> WeightedChoice[str]:
    # §8.3: 24.6% Apache/2.2.22, 15.0% Apache-Coyote/1.1, 7.6% 2.2.25,
    # >40% on 2.2.*, a handful of 1.3.*, and rare 2.4.7 adopters.
    return WeightedChoice(
        [
            ("Apache/2.2.22", 24.6),
            ("Apache-Coyote/1.1", 15.0),
            ("Apache/2.2.25", 7.6),
            ("Apache/2.2.15", 6.5),
            ("Apache/2.2.3", 5.0),
            ("Apache/2.2.14", 4.5),
            ("Apache", 12.0),
            ("Apache/2.4.6", 3.5),
            ("Apache/2.4.7", 0.4),
            ("Apache/2.0.63", 0.6),
            ("Apache/1.3.42", 0.2),
            (
                "Apache/2.2.24 (Unix) mod_ssl/2.2.24 OpenSSL/1.0.0-fips "
                "mod_auth_passthrough/2.1 mod_bwlimited/1.4 FrontPage/5.0.2.2635",
                0.2,
            ),
            ("Apache/2.2.26", 5.0),
            ("Apache/2.4.4", 2.0),
        ]
    )


def _nginx_versions() -> WeightedChoice[str]:
    return WeightedChoice(
        [
            ("nginx/1.4.1", 20.0),
            ("nginx/1.1.19", 18.0),
            ("nginx", 25.0),
            ("nginx/1.4.4", 12.0),
            ("nginx/1.2.1", 10.0),
            ("nginx/0.7.67", 3.0),
            ("nginx/1.5.8", 2.0),
        ]
    )


def _iis_versions() -> WeightedChoice[str]:
    # §8.3 (Azure): IIS 8.0 39.0%, 7.5 23.7%, 7.0 19.8%, 8.5 3.4%,
    # and a long tail including the vulnerable 6.0.
    return WeightedChoice(
        [
            ("Microsoft-IIS/8.0", 39.0),
            ("Microsoft-IIS/7.5", 23.7),
            ("Microsoft-IIS/7.0", 19.8),
            ("Microsoft-IIS/8.5", 3.4),
            ("Microsoft-IIS/6.0", 2.5),
            ("Microsoft-IIS/5.0", 0.3),
            ("Microsoft-IIS/7.5 (Windows Server 2008 R2)", 11.3),
        ]
    )


def _php_versions() -> WeightedChoice[str]:
    # §8.3: 60% of PHP users on 5.3.*; top releases 5.3.10 / 5.3.27 / 5.3.3.
    return WeightedChoice(
        [
            ("PHP/5.3.10", 24.5),
            ("PHP/5.3.27", 16.2),
            ("PHP/5.3.3", 9.7),
            ("PHP/5.3.2", 5.0),
            ("PHP/5.3.29", 4.6),
            ("PHP/5.4.12", 9.0),
            ("PHP/5.4.19", 8.0),
            ("PHP/5.4.23", 1.5),
            ("PHP/5.2.17", 6.0),
            ("PHP/5.5.6", 3.5),
            ("PHP/5.4.4", 12.0),
        ]
    )


def _wordpress_versions() -> WeightedChoice[str]:
    # §8.3: 3.5.* and 3.6.* dominate; >68% run vulnerable (<3.6) versions;
    # 3.7.*/3.8.* adoption trails their Oct/Dec 2013 releases.
    return WeightedChoice(
        [
            ("WordPress 3.5.1", 28.0),
            ("WordPress 3.5.2", 9.0),
            ("WordPress 3.6", 14.0),
            ("WordPress 3.6.1", 13.0),
            ("WordPress 3.4.2", 8.0),
            ("WordPress 3.3.1", 5.0),
            ("WordPress 3.2.1", 3.0),
            ("WordPress 3.7.1", 12.0),
            ("WordPress 3.8", 8.0),
        ]
    )


@dataclass(frozen=True)
class SoftwareCatalog:
    """Per-cloud distributions from which service stacks are drawn."""

    #: Probability the Server header is present & parseable at all
    #: (EC2: 89.9% of available IPs identified).
    server_identified: float
    server_families: WeightedChoice[str]
    versions_by_family: dict[str, WeightedChoice[str]]
    #: Probability the backend advertises itself via x-powered-by
    #: (EC2: ~32% of servers).
    backend_identified: float
    backends: WeightedChoice[str]
    #: Probability a page declares a generator template (EC2: ~3%).
    template_identified: float
    templates: WeightedChoice[str]

    def sample_stack(self, rng: random.Random) -> SoftwareStack:
        """Draw one service's software stack."""
        if rng.random() < self.server_identified:
            family = self.server_families.sample(rng)
            versions = self.versions_by_family.get(family)
            server = versions.sample(rng) if versions else family
        else:
            family = ""
            server = ""
        backend = ""
        if rng.random() < self.backend_identified:
            backend_family = self.backends.sample(rng)
            if backend_family == "PHP":
                backend = _PHP_VERSIONS.sample(rng)
            elif backend_family == "ASP.NET":
                backend = "ASP.NET"
            else:
                backend = backend_family
        template = ""
        if rng.random() < self.template_identified:
            template_family = self.templates.sample(rng)
            if template_family == "WordPress":
                template = _WORDPRESS_VERSIONS.sample(rng)
            elif template_family == "Joomla!":
                template = "Joomla! 1.5 - Open Source Content Management"
            elif template_family == "Drupal":
                template = "Drupal 7 (http://drupal.org)"
            else:
                template = template_family
        return SoftwareStack(
            server=server, server_family=family, backend=backend, template=template
        )

    def sample_stack_for_family(self, rng: random.Random,
                                family: str) -> SoftwareStack:
        """Draw a stack pinned to one server family (e.g. "MochiWeb"
        for the paper's dominant PaaS provider, §8.3)."""
        versions = self.versions_by_family.get(family)
        server = versions.sample(rng) if versions else family
        return SoftwareStack(
            server=server, server_family=family, backend="", template=""
        )


_PHP_VERSIONS = _php_versions()
_WORDPRESS_VERSIONS = _wordpress_versions()


def _ec2_catalog() -> SoftwareCatalog:
    return SoftwareCatalog(
        server_identified=0.899,
        server_families=WeightedChoice(
            [
                ("Apache", 55.2),
                ("nginx", 21.2),
                ("Microsoft-IIS", 12.2),
                ("MochiWeb", 4.4),
                ("lighttpd", 2.0),
                ("Jetty", 1.5),
                ("gunicorn", 1.5),
                ("LiteSpeed", 1.0),
                ("Cowboy", 1.0),
            ]
        ),
        versions_by_family={
            "Apache": _apache_versions(),
            "nginx": _nginx_versions(),
            "Microsoft-IIS": _iis_versions(),
            "MochiWeb": WeightedChoice([("MochiWeb/1.0 (Any of you quaids got a smint?)", 1.0)]),
            "lighttpd": WeightedChoice([("lighttpd/1.4.28", 0.7), ("lighttpd/1.4.31", 0.3)]),
            "Jetty": WeightedChoice([("Jetty(8.1.13.v20130916)", 1.0)]),
            "gunicorn": WeightedChoice([("gunicorn/18.0", 0.6), ("gunicorn/0.17.4", 0.4)]),
            "LiteSpeed": WeightedChoice([("LiteSpeed", 1.0)]),
            "Cowboy": WeightedChoice([("Cowboy", 1.0)]),
        },
        backend_identified=0.32,
        backends=WeightedChoice(
            [
                ("PHP", 52.6),
                ("ASP.NET", 29.0),
                ("Phusion Passenger 4.0.29", 8.1),
                ("Express", 3.5),
                ("Servlet/3.0", 3.0),
                ("PleskLin", 2.0),
                ("mod_rails", 1.8),
            ]
        ),
        template_identified=0.038,
        templates=WeightedChoice(
            [
                ("WordPress", 71.1),
                ("Joomla!", 9.7),
                ("Drupal", 4.1),
                ("MediaWiki 1.21.2", 3.0),
                ("TYPO3 4.7 CMS", 2.5),
                ("vBulletin 4.2.1", 2.0),
                ("Discourse", 1.5),
                ("Blogger", 6.1),
            ]
        ),
    )


def _azure_catalog() -> SoftwareCatalog:
    return SoftwareCatalog(
        server_identified=0.92,
        server_families=WeightedChoice(
            [
                ("Microsoft-IIS", 89.0),
                ("Apache", 7.7),
                ("nginx", 1.7),
                ("Jetty", 0.8),
                ("lighttpd", 0.8),
            ]
        ),
        versions_by_family={
            "Microsoft-IIS": _iis_versions(),
            "Apache": _apache_versions(),
            "nginx": _nginx_versions(),
            "Jetty": WeightedChoice([("Jetty(8.1.13.v20130916)", 1.0)]),
            "lighttpd": WeightedChoice([("lighttpd/1.4.28", 1.0)]),
        },
        backend_identified=0.45,
        backends=WeightedChoice(
            [
                ("ASP.NET", 94.2),
                ("PHP", 4.3),
                ("Express", 0.6),
                ("Servlet/3.0", 0.9),
            ]
        ),
        template_identified=0.012,
        templates=WeightedChoice(
            [
                ("WordPress", 55.0),
                ("Joomla!", 12.0),
                ("Drupal", 6.0),
                ("DotNetNuke", 15.0),
                ("Orchard", 8.0),
                ("Umbraco", 4.0),
            ]
        ),
    )


EC2_CATALOG = _ec2_catalog()
AZURE_CATALOG = _azure_catalog()
