"""List the ``src/`` functions that no shipped entry point reaches.

Runs CI's commands (bar installs and tests; one ``/tmp/`` per matrix
leg), the subcommands CI skips (:data:`EXTRA`), the examples, ``run.py
--smoke --traced`` and ``pytest benchmarks --benchmark-disable`` (which
rewrites ``benchmarks/results/``) under a ``sys.setprofile`` hook that a
temporary ``sitecustomize`` sets in every process and thread.  Prints
each function no run reached, bar declarations (only a docstring or
``...``) and the allowlist; exits 1 if any.  Needs PyYAML, ``curl`` and
free localhost ports 8337, 8339, 9109 and 9110.
"""

from __future__ import annotations

import ast
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW = Path(__file__).with_name("deadcode_allow.txt")
SKIP = ("pip install", "pytest", "make ")

HOOK = '''import os, sys, threading
if os.environ.get("DEADCODE_SRC"):
    _src, _seen = os.environ["DEADCODE_SRC"], set()
    _out = open(os.path.join(os.environ["DEADCODE_OUT"], str(os.getpid())),
                "a", buffering=1)
    def _hook(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_src):
                _out.write(f"{code.co_filename}:{code.co_firstlineno}\\n")
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''

EXTRA = '''R="python -m repro"; T=$W/tier1-0-; S=${T}seed_workers.sqlite
$R lookup $S 54.0.0.4; $R rounds $S --json; $R stats $S --json
$R trace $S --stage fetch --json; $R quarantine list ${T}replay.sqlite --all
$R aggregate ${T}seed_inproc.sqlite; $R report $S --export $W/export
$R simulate --store-backend columnar --ips 1024 --days 4 --out $W/col \\
    --chaos-rate 0.2 --chaos-hostile
$R quarantine replay $W/col; $R lookup $W/col 54.0.0.4; $R aggregate $W/col
$R simulate --cloud azure --ips 1024 --days 8 --out $W/azure.sqlite
$R simulate --ips 4096 --days 10 --out $W/watch.sqlite --metrics-port 9110 &
until curl -sf 127.0.0.1:9110/metrics > /dev/null; do sleep 0.2; done
$R watch 9110 --frames 3 --interval 0.5 --no-clear; wait $!
$R simulate --ips 8192 --days 51 --out $W/resumed.sqlite &
sleep 3; kill -TERM $!; wait $!; $R resume $W/resumed.sqlite
echo 127.0.0.1 > $W/hosts; $R scan --targets $W/hosts --out $W/scan.sqlite
'''


def ci_steps() -> list[tuple[dict, str, str]]:
    """``(env, script, leg)`` of each CI step that runs the product, in
    job order, repeats dropped; *leg* names the job's matrix leg."""
    import yaml
    workflow = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())
    steps: list[tuple[dict, str, str]] = []
    for name, job in workflow["jobs"].items():
        matrix = job.get("strategy", {}).get("matrix", {})
        for index, values in enumerate(itertools.product(*matrix.values())):
            leg = dict(zip(matrix, map(str, values)))
            text = yaml.safe_dump(job, width=1 << 30)      # no folded lines
            legjob = yaml.safe_load(re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}",
                                           lambda m: leg[m.group(1)], text))
            env = legjob.get("env", {})
            for script in (step.get("run", "") for step in legjob["steps"]):
                if (script and not any(s in script for s in SKIP)
                        and all((env, script) != seen[:2] for seen in steps)):
                    steps.append((env, script, f"{name}-{index}-"))
    return steps


def functions(node: ast.AST, prefix: str = ""):
    """``(co_firstlineno, qualified name, declaration?)`` per function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name, all(
                isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
                for s in child.body)
            yield from functions(child, prefix + child.name + ".")
        else:
            name = child.name + "." if isinstance(child, ast.ClassDef) else ""
            yield from functions(child, prefix + name)


def src_functions() -> dict[str, tuple[Path, int, bool]]:
    """``{"repro/x.py::Class.method": (path, first line, declaration?)}``."""
    return {
        f"{path.relative_to(SRC)}::{name}": (path, first, declaration)
        for path in sorted(SRC.rglob("*.py"))
        for first, name, declaration in functions(ast.parse(path.read_text()))
    }


def allowlist(path: Path = ALLOW) -> dict[str, str]:
    """``{entry: reason}`` from lines ``repro/x.py::Class.method reason``."""
    entries = (line.partition(" ") for line in path.read_text().splitlines()
               if line.strip() and not line.startswith("#"))
    return {entry: reason.strip() for entry, _, reason in entries}


def report(scratch: Path) -> int:
    (scratch / "sitecustomize.py").write_text(HOOK)
    out, work = scratch / "reached", scratch / "work"
    for directory in (out, work):
        directory.mkdir()
    env = {**os.environ, "DEADCODE_SRC": f"{SRC}{os.sep}",
           "DEADCODE_OUT": str(out), "W": str(work),
           "PYTHONPATH": f"{scratch}{os.pathsep}{SRC}"}
    runs = [(step_env, script.replace("/tmp/", f"{work}/{leg}"))
            for step_env, script, leg in ci_steps()]
    runs += [({}, f"python {example}")
             for example in sorted((ROOT / "examples").glob("*.py"))]
    runs += [({}, script) for script in (
        EXTRA, "python benchmarks/perf/run.py --smoke --traced",
        "python -m pytest benchmarks --benchmark-disable -q")]
    for step_env, script in runs:
        print(f"deadcode: {script.strip().splitlines()[0]}", flush=True)
        done = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT,
                              env={**env, **step_env},
                              stdout=subprocess.DEVNULL)
        if done.returncode:
            print(f"deadcode: exit {done.returncode}:\n{script}")
            return 1
    reached = {line for trail in out.iterdir()
               for line in trail.read_text().splitlines()}
    allowed = allowlist()
    dead = [f"src/{path.relative_to(SRC)}:{first}: {entry.split('::')[1]}"
            for entry, (path, first, declaration) in src_functions().items()
            if f"{path}:{first}" not in reached and not declaration
            and entry not in allowed]
    print("\n".join(dead))
    print(f"{len(dead)} src/ function(s) no shipped entry point reaches")
    return 1 if dead else 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="deadcode-") as scratch:
        sys.exit(report(Path(scratch)))
