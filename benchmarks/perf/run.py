"""Launcher of the platform benchmark: ``python3 benchmarks/perf/run.py``.

Puts the product (``src/``) and this package on ``sys.path`` and hands
over to :mod:`perf.main`.  Everything that runs is behind the
``__main__`` check: a spawned partition worker (``workers.count = 2``)
re-imports this file as ``__mp_main__``, and an unguarded driver would
re-run the whole benchmark in each worker.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no product to measure under {ROOT / 'src'}")
    import atexit

    from perf.common import stop_children

    # Registered before anything imports multiprocessing, so that it
    # runs after multiprocessing's own exit handler: that one releases
    # the last queues' semaphores, which would start the resource
    # tracker again if it had already been stopped.
    atexit.register(stop_children)
    from perf.main import main

    sys.exit(main())
