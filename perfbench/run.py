"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http_repeat --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric (spans are written to
``.perfbench/traces/``).  Metric names and units come from
``BENCHMARK.json``, each workload's traffic from ``baseline.json``.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any served answer differs
from the oracle or the run cannot be made valid.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    traffic = json.loads((HERE / "baseline.json").read_text())["workloads"]
    if args.workload not in traffic:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(traffic)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: E402  (needs the paths above)

    wanted = {
        m["name"]: m["unit"]
        for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    run = workloads.Run(
        ROOT, workloads.Traffic(name=args.workload, **traffic[args.workload]),
        args.seed, args.seconds, bool(args.trace),
    )
    try:
        prov = workloads.execute(run)
    except workloads.BenchError as exc:
        for line in run.lines:
            print(line)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        run.cleanup()

    if args.trace:
        for name, unit in wanted.items():
            if name not in run.metrics:
                run.metric(name, 0.0, unit, 0, "not exercised by this workload")
    missing = [name for name in wanted if name not in run.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for line in run.lines:
        print(line)
    others = [name for name in run.metrics if name not in wanted]
    for names, header in ((list(wanted), None), (others, "# also measured (no bound):")):
        if names and header:
            print(header)
        for name in names:
            value, unit, samples, note = run.metrics[name]
            print(f"{name:34s} {value:14.6f} {unit:6s} n={samples:<6d} {note}")
    print(f"# {time.perf_counter() - started:.1f} s wall, "
          f"{run.mismatches} oracle mismatches")
    correct = run.mismatches == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name][0], "unit": run.metrics[name][1]}
            for name in wanted
        },
    }
    record = run.out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {**result, "provenance": prov, "lines": run.lines,
         "all_metrics": {
             name: dict(zip(("value", "unit", "samples", "note"), entry))
             for name, entry in run.metrics.items()
         }},
        indent=1,
    ))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
