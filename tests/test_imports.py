"""Start-up import gate: each lightweight entry point loads only what it
runs.

Every command below runs as a subprocess under ``python -X importtime``
against a tiny seeded store; the module names ``-X importtime`` reports
on stderr are the modules the run imported.  The gate asserts that
numpy is absent and that the ``repro.*`` set equals the command's
allowlist.  It measures no time: a module-level import that slows
start-up fails here, by name, instead of showing up as a benchmark
regression.  When a command legitimately needs a new module, add it to
that command's allowlist in the same change.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: What every store-reading command loads: the CLI, the config, the
#: store engines and their telemetry hooks, and the address helpers.
#: (``python -m`` runs ``repro.__main__`` without importing it, so
#: ``-X importtime`` never lists it.)
STORE_COMMAND = frozenset({
    "repro",
    "repro.cli",
    "repro.cloudsim",
    "repro.cloudsim.addressing",
    "repro.core",
    "repro.core.backoff",
    "repro.core.config",
    "repro.core.records",
    "repro.core.store",
    "repro.core.store.base",
    "repro.core.store.columnar",
    "repro.core.store.sqlite",
    "repro.core.telemetry",
})

#: The serving layer on top: the app, its read paths and its overload
#: primitives (``repro.serve`` re-exports the load generator too).
SERVE_LAYER = frozenset({
    "repro.serve",
    "repro.serve.app",
    "repro.serve.loadgen",
    "repro.serve.queries",
    "repro.serve.resilience",
})

ALLOWLIST = {
    "serve": STORE_COMMAND | SERVE_LAYER,
    "verify": STORE_COMMAND,
    "lookup": STORE_COMMAND,
    "rounds": STORE_COMMAND,
    "stats": STORE_COMMAND,
    "rebuild-views": STORE_COMMAND,
    "trace": STORE_COMMAND,
}

#: Library imports that must stay as light as the commands built on
#: them: the store, and the app ``repro serve`` runs.
LIBRARY_ALLOWLIST = {
    "repro.core.store": STORE_COMMAND - {
        "repro.cli", "repro.cloudsim", "repro.cloudsim.addressing",
    },
    "repro.serve.app": (STORE_COMMAND | SERVE_LAYER) - {"repro.cli"},
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def imported_modules(stderr: str) -> set[str]:
    """Module names from ``-X importtime`` output (one
    ``import time: self | cumulative | name`` line per import, after a
    header whose "name" is ``imported package``)."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def imported_by(*argv: str) -> set[str]:
    """What ``python -X importtime *argv`` imports, run to completion."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return imported_modules(proc.stderr)


def run_serve(db: str) -> set[str]:
    """Start ``repro serve``, stop it with SIGTERM once it is serving,
    and return what it imported over the whole run."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve", db,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving "), line
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 0, stderr
    return imported_modules(stderr)


@pytest.fixture(scope="module")
def seeded_db(tmp_path_factory) -> str:
    """Two simulated rounds over 256 IPs, with a span trace next to
    the database where `repro trace <db>` looks for it."""
    db = str(tmp_path_factory.mktemp("imports") / "campaign.sqlite")
    subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--ips", "256",
         "--days", "8", "--seed", "5", "--out", db,
         "--trace-out", f"{db}.trace.jsonl"],
        check=True, capture_output=True, env=_env(), timeout=120,
    )
    return db


def _lookup_ip(db: str) -> str:
    from repro.cloudsim.addressing import int_to_ip
    from repro.core.store import open_store

    store = open_store(db, readonly=True)
    try:
        first = store.rounds()[0].round_id
        return int_to_ip(min(store.responsive_ips(first)))
    finally:
        store.close()


def _assert_gate(loaded: set[str], allowed: frozenset) -> None:
    assert "numpy" not in loaded
    repro_modules = {
        name for name in loaded
        if name == "repro" or name.startswith("repro.")
    }
    assert repro_modules == allowed, (
        f"unexpected: {sorted(repro_modules - allowed)}; "
        f"missing: {sorted(allowed - repro_modules)}"
    )


class TestCommandImports:
    @pytest.mark.parametrize("command", [
        "verify", "rounds", "stats", "rebuild-views", "trace",
    ])
    def test_store_command(self, seeded_db, command):
        loaded = imported_by("-m", "repro", command, seeded_db)
        _assert_gate(loaded, ALLOWLIST[command])

    def test_lookup(self, seeded_db):
        loaded = imported_by(
            "-m", "repro", "lookup", seeded_db, _lookup_ip(seeded_db))
        _assert_gate(loaded, ALLOWLIST["lookup"])

    def test_serve(self, seeded_db):
        _assert_gate(run_serve(seeded_db), ALLOWLIST["serve"])


class TestLibraryImports:
    @pytest.mark.parametrize("module", sorted(LIBRARY_ALLOWLIST))
    def test_library_import(self, module):
        loaded = imported_by("-c", f"import {module}")
        _assert_gate(loaded, LIBRARY_ALLOWLIST[module])

