"""The WhoWas platform core: scanner, fetcher, features, store.

This is the paper's primary contribution (§4): a pipeline that probes
cloud IP ranges, fetches top-level pages, extracts content features and
persists per-round records behind a programmatic lookup API.

Import from the submodules (``repro.core.platform``, ``.store``,
``.transport``, ...): the package re-exports nothing, so loading the
store does not load the ingest stack and numpy.
"""
