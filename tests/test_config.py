"""Tests for platform configuration and its paper defaults."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import config as config_module
from repro.core.config import FetchConfig, PlatformConfig, ScanConfig
from repro.core.scanner import FALLBACK_PORTS, WEB_PORTS


class TestScanConfig:
    def test_paper_defaults(self):
        config = ScanConfig()
        assert config.probe_timeout == 2.0
        assert config.probes_per_second == 250.0
        assert config.retries == 0
        assert (WEB_PORTS, FALLBACK_PORTS) == ((80, 443), (22,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probe_timeout": 0},
            {"probe_timeout": -1},
            {"probes_per_second": 0},
            {"concurrency": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScanConfig(**kwargs)


class TestFetchConfig:
    def test_paper_defaults(self):
        config = FetchConfig()
        assert config.workers == 250
        assert config.timeout == 10.0
        assert config.max_body_bytes == 512 * 1024
        assert config.respect_robots

    def test_user_agent_has_contact(self):
        """§7: the UA carries a research note with a contact address."""
        user_agent = FetchConfig().user_agent
        assert "contact" in user_agent
        assert "opt out" in user_agent

    @pytest.mark.parametrize(
        "kwargs",
        [{"workers": 0}, {"timeout": 0}, {"max_body_bytes": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FetchConfig(**kwargs)

    def test_should_download_text(self):
        config = FetchConfig()
        assert config.should_download("text/html")
        assert config.should_download("text/plain; charset=utf-8")
        assert config.should_download("TEXT/XML")

    def test_should_not_download_binary(self):
        """§4: application/audio/image/video bodies are never stored."""
        config = FetchConfig()
        assert not config.should_download("image/png")
        assert not config.should_download("video/mp4")
        assert not config.should_download("audio/mpeg")
        assert not config.should_download("application/octet-stream")

    def test_text_like_application_types_allowed(self):
        """Table 5 shows application/json and application/xml stored."""
        config = FetchConfig()
        assert config.should_download("application/json")
        assert config.should_download("application/xml")
        assert config.should_download("application/xhtml+xml")

    def test_missing_content_type_downloaded(self):
        assert FetchConfig().should_download("")


class TestPlatformConfig:
    def test_default_composition(self):
        config = PlatformConfig()
        assert config.scan.probe_timeout == 2.0
        assert config.fetch.workers == 250
        assert config.blacklist == frozenset()


class TestDocumentedKnobsExist:
    def test_every_config_keyword_in_the_docs_is_a_real_field(self):
        """A ``SomethingConfig(name=`` written in the documents must
        name a field of that dataclass, so a removed knob cannot keep
        living in the prose."""
        root = Path(__file__).resolve().parent.parent
        mentions = [
            (doc, cls, name)
            for doc in ("README.md", "DESIGN.md", "benchmarks/perf/README.md")
            for cls, name in re.findall(
                r"\b(\w+Config)\((\w+)=", (root / doc).read_text()
            )
        ]
        assert mentions, "the documents no longer show any config knob"
        stale = [
            f"{doc}: {cls}({name}=…)"
            for doc, cls, name in mentions
            if name not in {
                field.name
                for field in dataclasses.fields(getattr(config_module, cls))
            }
        ]
        assert not stale, stale

    def test_every_script_and_make_target_in_the_docs_exists(self):
        """A ``benchmarks/….py`` / ``scripts/….py`` / ``BENCH….json``
        path or a ``make <target>`` command written in the documents
        must exist in the tree / the Makefile, so a retired script
        cannot keep living in the prose."""
        root = Path(__file__).resolve().parent.parent
        targets = set(re.findall(
            r"^([a-z][\w-]*):", (root / "Makefile").read_text(), re.M))
        seen, stale = 0, []
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (root / doc).read_text()
            paths = re.findall(
                r"\b((?:benchmarks|scripts)/[\w/]+\.py|BENCH\w*\.json)\b",
                text)
            made = re.findall(r"[`$] ?make ([a-z][\w-]*)", text)
            seen += len(paths) + len(made)
            stale += [f"{doc}: {path}" for path in paths
                      if not (root / path).is_file()]
            stale += [f"{doc}: make {target}" for target in made
                      if target not in targets]
        assert seen, "the documents no longer name any script or target"
        assert not stale, stale

    def test_every_documented_repro_import_resolves(self):
        """Every ``import repro…`` / ``from repro… import …`` in the
        documents' ``python`` blocks and in ``examples/``, and every
        backticked dotted ``repro.…`` name in the documents, must
        resolve, so a removed re-export cannot keep living in a
        snippet.  All of them run in one fresh interpreter."""
        root = Path(__file__).resolve().parent.parent
        docs = {doc: (root / doc).read_text()
                for doc in ("README.md", "DESIGN.md")}
        sources = [
            block for text in docs.values()
            for block in re.findall(r"^```python\n(.*?)^```", text,
                                    re.M | re.S)
        ] + [path.read_text() for path in (root / "examples").glob("*.py")]
        statements = sorted({
            ast.unparse(node)
            for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "repro" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
        })
        dotted = sorted({
            name for text in docs.values()
            for name in re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)[`(]", text)
        })
        assert statements and dotted, "the documents show no repro import"
        proc = subprocess.run(
            [sys.executable, "-c", _RESOLVE_IMPORTS],
            input=json.dumps([statements, dotted]),
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


#: Run by the documented-imports test in a fresh interpreter: reads
#: ``[statements, dotted_names]`` as JSON on stdin and prints the JSON
#: list of those that do not resolve.
_RESOLVE_IMPORTS = """
import importlib, json, sys

statements, dotted = json.load(sys.stdin)
stale = []
for statement in statements:
    try:
        exec(statement, {})
    except ImportError as exc:
        stale.append(f"{statement}: {exc}")
for name in dotted:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    for attr in parts[cut:]:
        obj = getattr(obj, attr, None)
    if obj is None:
        stale.append(name)
print(json.dumps(stale))
"""
