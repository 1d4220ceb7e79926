"""``make deadcode``'s allowlist and its function index.

Each entry of ``scripts/deadcode_allow.txt`` must name a function that
exists and give a reason, so deleting a function removes its entry too;
and the index must key each function by the line its code object
reports, or reached functions would read as dead.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
from pathlib import Path

from repro.core.store import base

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "deadcode.py"


def load_deadcode():
    spec = importlib.util.spec_from_file_location("deadcode", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlisted_function_exists_with_a_reason():
    deadcode = load_deadcode()
    functions = deadcode.src_functions()
    allowed = deadcode.allowlist()
    assert [entry for entry in allowed if entry not in functions] == []
    assert [entry for entry, reason in allowed.items() if not reason] == []


def test_no_reason_rests_on_a_library_user():
    """A shipped caller keeps a function, and a test does not: "library
    users" or a "library API" is no reader of its own."""
    allowed = load_deadcode().allowlist()
    assert [entry for entry, reason in allowed.items()
            if re.search(r"library (users?|API)", reason, re.IGNORECASE)
            ] == []


def test_index_lines_are_code_object_lines():
    """Plain and decorated (``contextmanager``, ``abstractmethod``,
    ``property``): what the profiler sees is what the index holds."""
    functions = load_deadcode().src_functions()

    def first_line(entry):
        return functions[f"repro/core/store/base.py::{entry}"][1]

    assert first_line("shard_checksum") \
        == base.shard_checksum.__code__.co_firstlineno
    for name in ("read_deadline", "begin_round", "rounds"):
        code = inspect.unwrap(getattr(base.StoreBackend, name)).__code__
        assert first_line(f"StoreBackend.{name}") == code.co_firstlineno
    assert first_line("RoundInfo.table_name") \
        == base.RoundInfo.table_name.fget.__code__.co_firstlineno
    declared = functions["repro/core/store/base.py::StoreBackend.rounds"][2]
    assert declared
