"""What every workload shares: its parameters, its result, scratch
space inside the checkout, and the few measurements taken the same way
everywhere."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
#: Traces, result files and scratch stores; listed in .gitignore.
OUT_DIR = PERF_DIR / "out"

#: ``--seconds`` the workload sizes were chosen at (BENCHMARK.json's
#: ``run_seconds``): rounds and repeats scale with seconds / NOMINAL,
#: IPs per round never do.
NOMINAL_SECONDS = 15.0


class CheckFailed(Exception):
    """A correctness check failed: the workload reports no metric."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Params:
    seed: int
    seconds: float = NOMINAL_SECONDS
    #: ``--smoke`` runs at about a tenth of the size, for its checks.
    scale: float = 1.0
    trace: bool = False

    def repeats(self, per_nominal: int, *, least: int = 1) -> int:
        """Rounds / repeats for this run length."""
        return max(least, round(per_nominal * self.seconds / NOMINAL_SECONDS))

    def scaled(self, count: int) -> int:
        return max(1, int(count * self.scale))


@dataclass
class Result:
    """One workload's outcome."""

    attempted: int
    failed: int
    #: The end-to-end metrics of BENCHMARK.json, by name: the slots
    #: every workload fills.
    end_to_end: dict
    #: The same readings under the names ISSUE 12 gave them; a workload
    #: lists only those it measures.
    named: dict
    #: Per-layer metrics the workload measured (traced runs only);
    #: layers it does not exercise are filled with 0 by the runner.
    per_layer: dict = field(default_factory=dict)
    #: Median, reportable tail percentile and n of each timing.
    timings: dict = field(default_factory=dict)
    #: Counts that must repeat exactly for one seed.
    counts: dict = field(default_factory=dict)
    #: Workload parameters and run metadata (``fixture_s`` …).
    meta: dict = field(default_factory=dict)


@contextmanager
def scratch_dir():
    """A directory inside the checkout, removed afterwards."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def disk_bytes(path: Path) -> int:
    """On-disk bytes of a store: a sqlite file with its ``-wal`` and
    ``-shm`` siblings, or a columnar directory."""
    if path.is_dir():
        return sum(
            f.stat().st_size for f in path.rglob("*") if f.is_file()
        )
    return sum(
        f.stat().st_size for f in path.parent.glob(path.name + "*")
        if f.is_file()
    )


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def success_share(attempted: int, failed: int) -> float:
    """``within_limit_share`` of a workload whose only limit is that
    the operation succeeds."""
    return (attempted - failed) / attempted


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    begun = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - begun, result


def us_per_item(fn, items, *, passes: int = 3) -> float:
    """Median over *passes* of the mean microseconds ``fn(item)`` takes
    — the isolated per-layer drivers' stopwatch."""
    samples = []
    for _ in range(passes):
        begun = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - begun) / len(items) * 1e6)
    return statistics.median(samples)


def child_pids() -> list[int]:
    """Processes whose parent is this interpreter, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # ended while we were listing
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Leave no process behind: called on every way out of the benchmark.

    ``workers.count = 2`` has ``multiprocessing`` start a resource
    tracker next to the partition workers.  The workers are joined by
    the product; the tracker is not — it ends only when it sees this
    interpreter's end of its pipe close, so it outlives the run by some
    milliseconds unless it is stopped and waited for here.  Anything
    else still a child at this point is killed and waited for."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    # Closes the pipe and waits for the tracker (a no-op when none runs).
    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended and waited for


def child_env() -> dict:
    """Environment for the subprocesses the benchmark starts: the
    product importable, nothing else changed."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
