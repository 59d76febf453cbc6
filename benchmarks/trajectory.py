"""Timing and recording helpers shared by the perf benches.

A perf bench times each row with :func:`timed` (the best of a few
wall-clock runs) and merges its numbers into one ``BENCH_*.json`` file
at the repo root with :func:`record`: the perf trajectory that later
changes compare against.  Import it as ``from trajectory import ...``;
pytest puts this directory on ``sys.path`` for the benches.
"""

import json
import time
from pathlib import Path

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


def record(path: Path, **fields) -> None:
    """Merge ``fields`` into the JSON file at ``path``.

    Keys not in ``fields`` keep their recorded values; a missing or
    unparsable file starts from an empty record.
    """
    results = {}
    if path.is_file():
        try:
            results = json.loads(path.read_text())
        except json.JSONDecodeError:
            results = {}
    results.update(fields)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
