"""Timing and recording helpers shared by the perf benches.

A perf bench times each row with :func:`timed` (the best of a few
wall-clock runs) and merges its numbers into one ``BENCH_*.json`` file
at the repo root with :func:`record`: the perf trajectory that later
changes compare against.  Every record carries a ``machine`` stamp
(CPU model, CPU count, Python and NumPy versions), so a number can be
told apart from the machine it was measured on.  Import it as
``from trajectory import ...``; pytest puts this directory on
``sys.path`` for the benches.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

#: Repo root, where the ``BENCH_*.json`` trajectory files live.
ROOT = Path(__file__).resolve().parent.parent


def timed(fn, rounds: int = 3) -> float:
    """Best wall-clock seconds over ``rounds`` calls of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def machine() -> dict:
    """The machine a bench runs on: CPU model, CPU count, Python, NumPy."""
    cpu = platform.processor() or platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def record(path: Path, **fields) -> None:
    """Merge ``fields`` into the JSON file at ``path``, stamped with
    :func:`machine` under ``"machine"``.

    Keys not in ``fields`` keep their recorded values; a missing or
    unparsable file starts from an empty record.
    """
    results = {}
    if path.is_file():
        try:
            results = json.loads(path.read_text())
        except json.JSONDecodeError:
            results = {}
    results.update(fields, machine=machine())
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
